"""The benchmark's tracer must find every hook it wraps, and every
recorded benchmark job must still print the same bytes.

bench/tracing.py wraps public functions and the CycloNum / Algebra
methods it counts by name; a refactor that renames or moves one of them
would silently zero the per-layer metrics.  bench/expected.json pins the
stdout sha256 of every job of each workload at the recorded seeds.  The
bench modules are loaded read-only from the bench directory.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import sys

import heisgrad.cli  # loads every heisgrad module
from heisgrad.liealg import Algebra, heisenberg
from heisgrad.scalars import CycloCtx, CycloNum

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"heisgrad_bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_bench("tracing")


def _hooked_attributes(tracing):
    owners = {}
    for short, names in tracing.SPANNED.items():
        mod = sys.modules[f"heisgrad.{short}"]
        owners.update({(mod, name): getattr(mod, name) for name in names})
    for short, cls_name, meth, _ in tracing.SPANNED_METHODS + tracing.COUNTED_METHODS:
        cls = getattr(sys.modules[f"heisgrad.{short}"], cls_name)
        owners[(cls, meth)] = vars(cls)[meth]
    return owners


def test_tracer_finds_every_hook_and_restores_it():
    tracing = _load_tracing()
    before = _hooked_attributes(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert vars(CycloNum)["__mul__"] is not before[(CycloNum, "__mul__")]
        ctx = CycloCtx(4)
        (ctx.zeta() * ctx.zeta()).inv()
        a = heisenberg(1)
        a.bracket(a.basis_vect(0), a.basis_vect(1))
        assert tracer.counts["scalars.mul"] >= 2
        assert tracer.counts["scalars.inv"] == 1
        assert [s[0] for s in tracer.spans] == ["liealg.bracket"]
    finally:
        tracer.uninstall()
    after = _hooked_attributes(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert vars(Algebra)["bracket"] is before[(Algebra, "bracket")]


def test_recorded_benchmark_outputs_are_byte_identical():
    workloads = _load_bench("workloads")
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(workloads.WORKLOADS)
    for workload, seeds in expected.items():
        for seed, record in seeds.items():
            jobs = workloads.make_jobs(workload, int(seed))
            assert workloads.inputs_digest(jobs) == record["inputs"], (workload, seed)
            digests = []
            for job in jobs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    heisgrad.cli.main(job["argv"])
                digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
            assert digests == record["stdout"], (workload, seed)


def test_bracket_work_per_benchmark_pass_is_bounded(monkeypatch):
    # the twisted constructor brackets each pair of a grading's basis once,
    # sharing its memo between the block checks and the universal group, the
    # Weyl generators are checked on Grading.table, not by rebracketing
    # rebased blocks, and verify brackets each unordered pair of components
    # once, which the universal group then reads; Grading.table brackets each
    # unordered pair of parity-homogeneous components once, in the orientation
    # the memo holds; decompose walks each block orbit once, reads V_mu^l
    # off the ad(u')-eigenvalues of its adjusted pairs, with no walk of its
    # own, and scales a block by the bracket its search found (911 brackets
    # per roundtrip pass when it walked each pair l times and bracketed the
    # found vectors again); the bounds are the counts of the seed-23 batches
    # at that design
    workloads = _load_bench("workloads")
    calls = [0]
    bracket = Algebra.bracket

    def counted(self, x, y):
        calls[0] += 1
        return bracket(self, x, y)

    monkeypatch.setattr(Algebra, "bracket", counted)
    for workload, bound in (("enumerate", 1865), ("weyl-brute", 253), ("roundtrip", 857)):
        jobs = workloads.make_jobs(workload, 23)  # the roundtrip inputs take brackets too
        calls[0] = 0
        for job in jobs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                heisgrad.cli.main(job["argv"])
        assert calls[0] <= bound, workload
        # the memo brackets through Algebra.bracket, so the count is exact:
        # a bound alone would also hold if the memo stopped calling it
        assert workload != "enumerate" or calls[0] == 1865, calls[0]


def test_scalar_work_per_benchmark_pass_is_bounded(monkeypatch):
    # one ScalarClasses per (lam, l) memoizes each scalar's class
    # representative and the rotation candidates of each class, so the
    # enumeration, its equivalence test, the spectrum rotations and the
    # closed form share their products and sort keys, and x ** e squares
    # only while bits remain; the bounds are the counts of the seed-23
    # batches at that design (mul 9914 and 10848 before the last)
    workloads = _load_bench("workloads")
    calls = {"mul": 0, "sort_key": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(CycloNum, "__mul__", counted("mul", CycloNum.__mul__))
    monkeypatch.setattr(CycloNum, "__rmul__", counted("mul", CycloNum.__rmul__))
    monkeypatch.setattr(CycloNum, "sort_key", counted("sort_key", CycloNum.sort_key))
    for workload, bound in (("enumerate", {"mul": 9906, "sort_key": 340}),
                            ("weyl-brute", {"mul": 9644, "sort_key": 103})):
        calls.update(mul=0, sort_key=0)
        for job in workloads.make_jobs(workload, 23):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                heisgrad.cli.main(job["argv"])
        assert all(calls[name] <= bound[name] for name in bound), (workload, calls)


def test_scalar_memo_misses_per_benchmark_pass_are_bounded(monkeypatch):
    # each CycloCtx object computes a product of two operands, or an
    # inverse, once while it stays in the memo's budget; a pass builds its
    # own contexts, so a second pass computes as much as the first and no
    # result outlives a CLI call; the bounds are the products and inverses
    # computed by the seed-23 batches at that design (4,730 / 6,326 / 9,188
    # products and 219 / 70 / 709 inverses without the memo)
    import heisgrad.scalars as scalars
    workloads = _load_bench("workloads")
    calls = {"product": 0, "inverse": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(scalars, "_product", counted("product", scalars._product))
    monkeypatch.setattr(scalars, "_inverse", counted("inverse", scalars._inverse))
    for workload, bound in (("weyl-brute", {"product": 420, "inverse": 29}),
                            ("enumerate", {"product": 1378, "inverse": 17}),
                            ("roundtrip", {"product": 4315, "inverse": 233})):
        jobs = workloads.make_jobs(workload, 23)
        passes = []
        for _ in range(2):
            calls.update(product=0, inverse=0)
            for job in jobs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    heisgrad.cli.main(job["argv"])
            passes.append(dict(calls))
        assert passes[0] == passes[1], (workload, passes)
        assert all(0 < passes[0][name] <= bound[name] for name in bound), (workload, passes)


def test_bruteforce_work_per_benchmark_pass_is_bounded(monkeypatch):
    # each candidate image gets one placement test, which checks the
    # vanishing brackets and forces the bracket targets together, and the
    # search keeps one stabilizer chain grown by each hit; the bounds are
    # the nodes visited and leaves tested, summed over the weyl_bruteforce
    # calls of the seed-23 weyl-brute batch at that design
    import heisgrad.weyl
    workloads = _load_bench("workloads")
    groups = []
    bruteforce = heisgrad.weyl.weyl_bruteforce

    def recorded(*args, **kwargs):
        groups.append(bruteforce(*args, **kwargs))
        return groups[-1]

    monkeypatch.setattr(heisgrad.weyl, "weyl_bruteforce", recorded)
    for job in workloads.make_jobs("weyl-brute", 23):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            heisgrad.cli.main(job["argv"])
    nodes = sum(g.nodes_visited for g in groups)
    leaves = sum(g.leaves_tested for g in groups)
    assert len(groups) == 6 and nodes <= 751 and leaves <= 21, (len(groups), nodes, leaves)


def test_scalar_classes_per_benchmark_pass_are_bounded(monkeypatch):
    # the enumeration builds one ScalarClasses per block order l of each
    # lambda, the per-lambda builder reuses them, twisted_fine builds one,
    # and the Weyl layer reads the instance the grading carries; each
    # instance finds its primitive root once, and nothing else looks for
    # one; the bounds are the counts of the seed-23 batches at that design
    import heisgrad.fine
    workloads = _load_bench("workloads")
    calls = {"classes": 0, "primitive_root": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(heisgrad.fine.ScalarClasses, "__init__",
                        counted("classes", heisgrad.fine.ScalarClasses.__init__))
    monkeypatch.setattr(heisgrad.fine, "primitive_root",
                        counted("primitive_root", heisgrad.fine.primitive_root))
    for workload, bound in (("enumerate", 20), ("weyl-brute", 9)):
        calls.update(classes=0, primitive_root=0)
        for job in workloads.make_jobs(workload, 23):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                heisgrad.cli.main(job["argv"])
        assert calls["classes"] <= bound and calls["primitive_root"] <= bound, (workload, calls)


def test_scalar_parses_per_roundtrip_pass_are_bounded(monkeypatch):
    # a JSON grading parses each distinct scalar text of its vectors, custom
    # table and lambda once; the bound is the count of the seed-23 roundtrip
    # batch at that design
    import heisgrad.liealg
    workloads = _load_bench("workloads")
    calls = [0]
    parse = heisgrad.liealg.parse_scalar

    def counted(text, ctx):
        calls[0] += 1
        return parse(text, ctx)

    jobs = workloads.make_jobs("roundtrip", 23)
    monkeypatch.setattr(heisgrad.liealg, "parse_scalar", counted)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            heisgrad.cli.main(job["argv"])
    assert calls[0] <= 249, calls[0]


def test_intersections_per_roundtrip_pass_are_bounded(monkeypatch):
    # decompose meets each remaining component with each V_mu^l once per
    # extraction round, and the hit search, the self-paired search and the
    # partner search share those meets; the bound is the count of the
    # seed-23 roundtrip batch at that design
    import heisgrad.fine
    workloads = _load_bench("workloads")
    calls = [0]
    intersection = heisgrad.fine.intersection

    def counted(*args):
        calls[0] += 1
        return intersection(*args)

    jobs = workloads.make_jobs("roundtrip", 23)
    monkeypatch.setattr(heisgrad.fine, "intersection", counted)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            heisgrad.cli.main(job["argv"])
    assert calls[0] <= 44, calls[0]


def test_building_heisenberg_40_tests_few_scalars(monkeypatch):
    # the constructor writes its 2k + 1 nonzero structure constants directly,
    # with no dense table to scan; the bound is the count at that design
    calls = [0]
    truth = CycloNum.__bool__

    def counted(self):
        calls[0] += 1
        return truth(self)

    monkeypatch.setattr(CycloNum, "__bool__", counted)
    a = heisenberg(40)
    assert a.dim == 81 and calls[0] <= 100, calls[0]


def test_zero_tests_per_weyl_closure_pass_are_bounded(monkeypatch):
    # the bracket memo brackets from the nonzero coordinates of the
    # component vectors, Grading.table maps only nonzero brackets through
    # the sparse inverse, which Gauss-Jordan builds on the nonzero
    # coordinates of the basis, a generator matrix column is e_j unless a
    # moved basis vector meets it and else a sum over the nonzero entries
    # of an inverse column, and a zero bracket is told by identity; the
    # bound is the count of the seed-23 weyl-closure batch at that design
    # (4318 with the dense inversion and a sum for every column)
    workloads = _load_bench("workloads")
    calls = [0]
    truth = CycloNum.__bool__

    def counted(self):
        calls[0] += 1
        return truth(self)

    jobs = workloads.make_jobs("weyl-closure", 23)
    monkeypatch.setattr(CycloNum, "__bool__", counted)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            heisgrad.cli.main(job["argv"])
    assert calls[0] <= 1679, calls[0]


def test_zero_tests_per_enumerate_pass_are_bounded(monkeypatch):
    # the blocks are written from their nonzero entries, the memo brackets
    # the nonzero coordinates of both sides and tests only the entries it
    # touched, and the block checks and the universal group read what the
    # memo holds; the bound is the count of the seed-23 enumerate batch at
    # that design (39,818 with dense blocks and brackets)
    workloads = _load_bench("workloads")
    calls = [0]
    truth = CycloNum.__bool__

    def counted(self):
        calls[0] += 1
        return truth(self)

    jobs = workloads.make_jobs("enumerate", 23)
    monkeypatch.setattr(CycloNum, "__bool__", counted)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            heisgrad.cli.main(job["argv"])
    assert calls[0] <= 4773, calls[0]


def test_zero_tests_per_roundtrip_pass_are_bounded(monkeypatch):
    # rref, rank, kernel and mat_inverse share one Gauss-Jordan elimination
    # on the nonzero coordinates of the rows, so a dense row is tested for
    # zero once, on its way in, and no row operation scans a zero entry;
    # decompose takes V_mu^l from the eigenvalues of its adjusted pairs, with
    # no kernel per mu, brackets from the nonzero coordinates of u' found
    # once, and scales a block by the bracket its search found; the bound is
    # the count of the seed-23 roundtrip batch at that design (35,853 when
    # rref reduced dense rows, 20,654 with a kernel per mu)
    workloads = _load_bench("workloads")
    calls = [0]
    truth = CycloNum.__bool__

    def counted(self):
        calls[0] += 1
        return truth(self)

    jobs = workloads.make_jobs("roundtrip", 23)
    monkeypatch.setattr(CycloNum, "__bool__", counted)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            heisgrad.cli.main(job["argv"])
    assert calls[0] <= 17803, calls[0]


def test_permutation_products_per_chain_are_bounded(monkeypatch):
    # the stabilizer chain of the heisenberg_fine(20) generators (degree 41)
    # tests no Schreier generator of a Schreier tree edge, which is 1; the
    # bound is the count at that design (16,801 when every pair was tested)
    import heisgrad.weyl as weyl
    from heisgrad.fine import heisenberg_fine
    perms = [aut.perm for aut in weyl.standard_generators(heisenberg_fine(20))]
    calls = [0]
    pmul = weyl._pmul

    def counted(a, b):
        calls[0] += 1
        return pmul(a, b)

    monkeypatch.setattr(weyl, "_pmul", counted)
    group = weyl.closure(perms)
    assert group.order == 2**20 * math.factorial(20) and calls[0] <= 16001, calls[0]


def test_standard_generators_hash_no_dense_vector(monkeypatch):
    # the moves' vectors are found by basis position (the same object) or
    # by their nonzero coordinates; 44,955 scalar hashes when the basis
    # index was a dict keyed on the dense vectors
    from heisgrad.fine import heisenberg_fine
    from heisgrad.weyl import standard_generators
    gr = heisenberg_fine(40)
    calls = [0]
    hash_ = CycloNum.__hash__

    def counted(self):
        calls[0] += 1
        return hash_(self)

    monkeypatch.setattr(CycloNum, "__hash__", counted)
    assert len(standard_generators(gr)) == 40 and calls[0] <= 1000, calls[0]


def test_enumeration_of_repeated_entries_extracts_each_split_once(monkeypatch):
    # lambda = 1^16 has 10 classes: _extract_blocks reaches each multiset
    # of orbits once, so it returns 10 splits, and the classes are told
    # apart by their keys with no pairwise equivalence test (1,598 splits
    # and 20,100 equivalence tests when one orbit was taken per step)
    import heisgrad.fine as fine
    calls = {"splits": 0, "equivalent": 0, "depth": 0}
    extract, equivalent = fine._extract_blocks, fine.ScalarClasses.equivalent

    def extracted(*args):
        calls["depth"] += 1
        try:
            out = extract(*args)
        finally:
            calls["depth"] -= 1
        if not calls["depth"]:
            calls["splits"] += len(out)
        return out

    def counted(*args):
        calls["equivalent"] += 1
        return equivalent(*args)

    monkeypatch.setattr(fine, "_extract_blocks", extracted)
    monkeypatch.setattr(fine.ScalarClasses, "equivalent", counted)
    assert len(fine.enumerate_twisted_fine([CycloCtx(32).one()] * 16)) == 10
    assert calls == {"splits": 10, "equivalent": 0, "depth": 0}, calls
