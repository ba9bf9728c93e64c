"""Named mutants of src/heisgrad, each run against the tests expected to kill it.

A mutant is one exact piece of source text in one file of src/heisgrad
and its replacement: a deliberate bug that some test should catch.  For
each mutant in turn, the script copies src/, tests/, bench/ and
pyproject.toml to a temporary directory, applies the replacement there
and runs the mutant's tests in one pytest subprocess.  The mutant is
killed when that run fails and survives when it passes.  The working
tree is never written.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

It prints one line per mutant (killed, survived, or error when its
source text does not occur exactly once) and exits 1 unless every
mutant is killed.  tests/test_mutants.py checks that each source text
occurs exactly once, so a refactor keeps this list current; it runs no
mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "heisgrad")
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIMEOUT_S = 600  # a mutant that makes its tests hang counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # under src/heisgrad
    source: str  # occurs exactly once in file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, any of which should fail


MUTANTS = [
    Mutant("no-schreier-generators", "weyl.py",
           "                    schreier.append((p, s))",
           "                    pass",
           ("tests/test_weyl.py::test_chain_matches_sympy_and_breadth_first_search",
            "tests/test_weyl.py::test_weyl_heisenberg_orders")),
    Mutant("sift-stops-at-first-fixed-point", "weyl.py",
           "            if g[i] != i:\n                rep = self.levels[i][1].get(g[i])",
           "            if g[i] == i:\n                break\n"
           "            else:\n                rep = self.levels[i][1].get(g[i])",
           ("tests/test_weyl.py::test_chain_matches_sympy_and_breadth_first_search",
            "tests/test_cli.py::test_weyl_super_golden")),
    Mutant("add-keeps-stale-elements", "weyl.py",
           '            self.__dict__.pop("elements", None)',
           "            pass",
           ("tests/test_weyl.py::test_chain_matches_sympy_and_breadth_first_search",)),
    Mutant("pivot-row-without-nonzero", "_linalg.py",
           "(r for r in free if c in rows[r])",
           "(r for r in free)",
           ("tests/test_weyl.py::test_sparse_inverse_of_every_table_basis",)),
    Mutant("elimination-clears-only-below-the-pivot", "_linalg.py",
           "        for row in rows:\n            if row is not prow and c in row:",
           "        for row in [rows[r] for r in free]:\n            if c in row:",
           ("tests/test_scalar_properties.py::test_mat_inverse_matches_sympy",
            "tests/test_scalar_properties.py::test_sparse_rational_linalg_matches_sympy")),
    Mutant("elimination-leaves-the-pivot-row-unscaled", "_linalg.py",
           "prow = rows[r] = {k: inv * x for k, x in rows[r].items()}",
           "prow = rows[r]",
           ("tests/test_scalar_properties.py::test_mat_inverse_matches_sympy",
            "tests/test_scalar_properties.py::test_sparse_rational_linalg_matches_sympy")),
    Mutant("inverse-of-a-singular-matrix", "_linalg.py",
           "    if len(pivots) < n:\n        return None\n",
           "",
           ("tests/test_scalar_properties.py::test_mat_inverse_matches_sympy",)),
    Mutant("place-without-zero-pattern-test", "weyl.py",
           "                if (k is None) != (k2 is None):\n                    return False\n",
           "",
           ("tests/test_weyl.py::test_bruteforce_matches_exhaustive_oracle",)),
    Mutant("place-without-forced-target-test", "weyl.py",
           "                if perm[k] is not None:\n"
           "                    if perm[k] != k2:\n"
           "                        return False\n"
           "                elif k in forced:\n"
           "                    if forced[k] != k2:\n"
           "                        return False\n"
           "                else:\n"
           "                    forced[k] = k2\n"
           "                    trail.append(k)\n",
           "",
           ("tests/test_weyl.py::test_bruteforce_matches_exhaustive_oracle",
            "tests/test_cli.py::test_weyl_twisted_brute_golden")),
    Mutant("place-without-placed-target-test", "weyl.py",
           "                    if perm[k] != k2:",
           "                    if False:",
           ("tests/test_weyl.py::test_bruteforce_matches_exhaustive_oracle",)),
    Mutant("relation-check-always-holds", "weyl.py",
           "        return num * den1 == num1 * den",
           "        return True",
           ("tests/test_weyl.py::test_bruteforce_matches_exhaustive_oracle",)),
    Mutant("writer-returns-e_j-for-every-column", "weyl.py",
           "a.basis_vect(j) if moved.isdisjoint(col) else",
           "a.basis_vect(j) if True else",
           ("tests/test_weyl.py::test_generator_matrices_match_the_dense_product",
            "tests/test_cli.py::test_weyl_twisted_rotation_golden")),
    Mutant("monomial-check-ignores-scales", "weyl.py",
           "            if ({perm[k]: scale[k] * c for k, c in t}\n"
           "                    != {k: scale[m] * scale[n] * c for k, c in",
           "            if ({perm[k]: c for k, c in t}\n"
           "                    != {k: c for k, c in",
           ("tests/test_weyl.py::test_induced_permutation_and_oracle_reject_the_same_maps",)),
    Mutant("skew-fill-flips-the-super-sign", "gradings.py",
           "sign = one if parity[m] and parity[n] else -one",
           "sign = -one if parity[m] and parity[n] else one",
           ("tests/test_weyl.py::test_graded_table_matches_dense_brackets",)),
    Mutant("class-rep-by-max", "fine.py",
           "min(members, key=lambda v: v.sort_key())",
           "max(members, key=lambda v: v.sort_key())",
           ("tests/test_fine.py::test_extraction_gives_each_multiset_of_orbits_once",
            "tests/test_cli.py::test_weyl_twisted_brute_golden")),
    Mutant("product-key-without-right-den", "scalars.py",
           "key = (self.num, self.den, o.num, o.den)",
           "key = (self.num, self.den, o.num)",
           ("tests/test_scalar_properties.py::test_memo_returns_the_uncached_results",)),
    Mutant("inverse-key-without-den", "scalars.py",
           "key = (self.num, self.den)\n",
           "key = self.num\n",
           ("tests/test_scalar_properties.py::test_memo_returns_the_uncached_results",)),
    Mutant("memo-without-budget", "scalars.py",
           "            if len(self._memo) >= self._cap:\n                self._memo.clear()\n",
           "",
           ("tests/test_scalar_properties.py::test_memo_stays_within_its_budget",)),
    Mutant("paired-basis-with-the-wrong-partner", "gradings.py",
           "dual_vectors(pairing, piece, pieces[j])",
           "dual_vectors(pairing, piece, pieces[i])",
           ("tests/test_gradings.py::test_symplectic_cross_paired_lines",
            "tests/test_color.py::test_classify_mixed_type_with_scramble")),
    Mutant("paired-basis-swaps-symplectic-and-orthogonal", "gradings.py",
           "elif j == i and alternating(i):",
           "elif j == i and not alternating(i):",
           ("tests/test_gradings.py::test_orthogonal_single_component",
            "tests/test_color.py::test_classify_round_trip_z4")),
    Mutant("paired-basis-without-gram-check", "gradings.py",
           "    _check_gram(d.pairing, pairs, diag, -1 if alternating else 1)\n",
           "",
           ("tests/test_gradings.py::test_gram_check_rejects_a_wrong_pair",)),
    Mutant("darboux-without-gram-check", "gradings.py",
           "    _check_gram(pairing, pairs, [], -1)\n",
           "",
           ("tests/test_gradings.py::test_gram_check_rejects_a_wrong_pair",)),
    Mutant("verify-reads-one-orientation-of-every-algebra", "gradings.py",
           "for h in support[i:] if skew else support:",
           "for h in support[i:]:",
           ("tests/test_cli.py::test_verify_scans_both_orientations_of_a_color_algebra",)),
    Mutant("axioms-with-a-transposed-factor", "liealg.py",
           "m = -factor[i][j]",
           "m = -factor[j][i]",
           ("tests/test_color.py::test_sparse_color_check_matches_the_dense_oracle",
            "tests/test_color.py::test_classify_restricts_a_nontrivial_epsilon_to_the_support")),
    Mutant("rotation-count-without-the-identity", "weyl.py",
           "rotations = 1 + len(_spectrum_rotations(fam.classes, p))",
           "rotations = len(_spectrum_rotations(fam.classes, p))",
           ("tests/test_weyl.py::test_closed_form_disagreements_are_pinned",
            "tests/test_weyl.py::test_root_of_unity_ratio_enlarges_weyl_group",
            "tests/test_fine.py::test_weyl_closed_form_and_brute_force_match_the_closure")),
    Mutant("rotation-count-over-the-type-ii-roots", "weyl.py",
           "roots = len(fam.classes.roots[0 if p.s else 1])",
           "roots = len(fam.classes.roots[1])",
           ("tests/test_weyl.py::test_odd_l_class_rotation_flagged",
            "tests/test_weyl.py::test_closed_form_disagreements_are_pinned",
            "tests/test_fine.py::test_weyl_closed_form_and_brute_force_match_the_closure")),
    Mutant("enumeration-key-without-the-shape", "fine.py",
           "        return (p.l, p.s, p.r) + min(",
           "        return min(",
           ("tests/test_fine.py::test_enumeration_key_holds_exactly_for_equivalent_splits",)),
    Mutant("enumeration-key-from-the-first-scalar", "fine.py",
           "for x in set(sides[0] if p.s else sides[1]))",
           "for x in (sides[0] if p.s else sides[1])[:1])",
           ("tests/test_fine.py::test_enumeration_key_holds_exactly_for_equivalent_splits",
            "tests/test_fine.py::test_enumeration_matches_the_orbit_oracle")),
    Mutant("extraction-drops-the-unpaired-count", "fine.py",
           "_extract_blocks(spec - take, s - a, r - b, classes, key)",
           "_extract_blocks(spec - take, s - a, r, classes, key)",
           ("tests/test_fine.py::test_enumeration_matches_the_orbit_oracle",
            "tests/test_cli.py::test_enumerate_fine_text_golden")),
    Mutant("bracket-keeps-a-cancelled-entry", "liealg.py",
           "            return {k: x for k, x in out.items() if x}",
           "            return out",
           ("tests/test_liealg.py::test_bracket_drops_cancelled_entries_and_shares_its_zeros",)),
    Mutant("json-writer-without-key-sort", "cli.py",
           "for k, v in sorted(x.items())",
           "for k, v in x.items()",
           ("tests/test_cli.py::test_json_writer_matches_json_dumps",
            "tests/test_bench_hooks.py::test_recorded_benchmark_outputs_are_byte_identical")),
    Mutant("group-sum-without-torsion-reduction", "abelian.py",
           "tuple((a + b) % d for a, b, d in",
           "tuple(a + b for a, b, d in",
           ("tests/test_abelian.py::test_element_arithmetic_matches_the_validating_constructor",)),
    Mutant("odd-conductor-root-without-the-sign", "fine.py",
           "        return -ctx.zeta(2 * n // order)",
           "        return ctx.zeta(2 * n // order)",
           ("tests/test_fine.py::test_primitive_root_closed_form",)),
    Mutant("v-l-from-mu-not-its-power", "fine.py",
           "rref([v for v, nul in zip(ambient, powers) if nul == mul])",
           "rref([v for v, nu in zip(ambient, lam + [-x for x in lam]) if nu == mu])",
           ("tests/test_fine.py::test_decompose_round_trips",
            "tests/test_fine.py::test_decompose_transported")),
    Mutant("standard-products-without-the-sign", "color.py",
           "back = vscale(-eps(degrees[j], degrees[i]), z)",
           "back = vscale(eps(degrees[j], degrees[i]), z)",
           ("tests/test_color.py::test_classify_mixed_type_with_scramble",
            "tests/test_color.py::test_classify_restricts_a_nontrivial_epsilon_to_the_support")),
]


def source_count(m: Mutant, root: str = ROOT) -> int:
    """How often m's source text occurs in its file under root."""
    with open(os.path.join(root, PACKAGE, m.file), encoding="utf-8") as fh:
        return fh.read().count(m.source)


def run(m: Mutant) -> str:
    """killed, survived or error, for m applied to a temporary copy."""
    if source_count(m) != 1:
        return "error"
    with tempfile.TemporaryDirectory(prefix="heisgrad-mutant-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        path = os.path.join(tmp, PACKAGE, m.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.source, m.replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                   "no:cacheprovider", *m.tests],
                                  cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if proc.returncode == 0:
        return "survived"
    return "killed" if proc.returncode == 1 else "error"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutant: " + ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    statuses = []
    for m in chosen:
        start = time.perf_counter()
        status = run(m)
        statuses.append(status)
        print(f"{status:8} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{statuses.count('killed')} of {len(chosen)} killed")
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
