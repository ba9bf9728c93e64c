"""The benchmark's tracer must find every hook it wraps.

bench/tracing.py wraps public functions and the CycloNum / Algebra
methods it counts by name; a refactor that renames or moves one of them
would silently zero the per-layer metrics.  The module is loaded
read-only from the bench directory.
"""

import importlib.util
import os
import sys

import heisgrad.cli  # noqa: F401  (loads every heisgrad module)
from heisgrad.liealg import Algebra, heisenberg
from heisgrad.scalars import CycloCtx, CycloNum

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("heisgrad_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
