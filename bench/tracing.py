"""Per-layer tracing of heisgrad from outside the package.

Each traced public function is rebound, in every ``heisgrad`` module
that holds a reference to it, to a wrapper that records a span (name,
start, end, parent span, job id).  Modules import with ``from ._linalg
import rref``, so patching only the defining module would miss callers.
Methods are wrapped on their class.  Scalar operations run too often to
span: ``CycloNum`` multiplication and inversion are counted only, and
their time stays in the self time of the spanned function that called
them.

Spans stay in memory until the traced passes end; ``worker.py`` then
writes them out once, one JSON line per span, under ``.bench_out/``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> functions spanned under "<layer>.<function>"
SPANNED = {
    "scalars": ("parse_scalar", "format_scalar"),
    "_linalg": ("rref", "kernel", "intersection", "mat_inverse"),
    "liealg": ("is_automorphism",),
    "abelian": ("smith_normal_form",),
    "gradings": ("universal_group", "verify_grading", "grading_from_json"),
    "fine": ("twisted_fine", "enumerate_twisted_fine", "spectrum_check",
             "decompose_twisted_grading"),
    "weyl": ("standard_generators", "induced_permutation", "closure",
             "weyl_bruteforce"),
    "color": ("classify_color",),
    "cli": ("main",),
}
# (module, class, method, span name); the group-shape checks call each
# other, and a span directly inside one of the same name is not opened,
# so only the outermost of them is recorded
SPANNED_METHODS = (
    ("liealg", "Algebra", "bracket", "liealg.bracket"),
    ("weyl", "PermGroup", "is_abelian", "weyl.group_shape"),
    ("weyl", "PermGroup", "has_cyclic_index2", "weyl.group_shape"),
    ("weyl", "PermGroup", "dihedral_pattern", "weyl.group_shape"),
)
# span name -> what to keep of each result
RESULT_VALUES = {
    "weyl.closure": lambda group: group.order,
    "weyl.weyl_bruteforce": lambda group: group.order,
    "fine.spectrum_check": bool,
}
# (module, class, method, counter name)
COUNTED_METHODS = (
    ("scalars", "CycloNum", "__mul__", "scalars.mul"),
    ("scalars", "CycloNum", "__rmul__", "scalars.mul"),
    ("scalars", "CycloNum", "inv", "scalars.inv"),
)


def layer_name(module: str) -> str:
    """The layer a module's metrics are named by: the module name without
    a leading underscore, since a metric name starts with a letter."""
    return module.lstrip("_")


class Tracer:
    """Installs the wrappers, records spans and counts, and removes the
    wrappers again."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, job)
        self.counts: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)  # name -> kept values
        self.stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self.job = -1  # id of the running job, stamped on its spans
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    # --- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        keep = RESULT_VALUES.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if keep is not None:
                self.results[name].append(keep(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- install / remove -------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "heisgrad" or name.startswith("heisgrad.")}
        for short, names in SPANNED.items():
            home = mods.get(f"heisgrad.{short}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{short}.{fname}")
                    continue
                wrapped = self._span(f"{layer_name(short)}.{fname}", orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, attr, orig, wrapped)
        for short, cls_name, meth, name in SPANNED_METHODS:
            self._wrap_method(mods, short, cls_name, meth,
                              lambda fn, n=name: self._span(n, fn))
        for short, cls_name, meth, name in COUNTED_METHODS:
            self._wrap_method(mods, short, cls_name, meth,
                              lambda fn, n=name: self._counter(n, fn))

    def _wrap_method(self, mods, short, cls_name, meth, make) -> None:
        cls = getattr(mods.get(f"heisgrad.{short}"), cls_name, None)
        orig = vars(cls).get(meth) if cls is not None else None
        if orig is None:
            self.missing.append(f"{short}.{cls_name}.{meth}")
            return
        self._rebind(cls, meth, orig, make(orig))

    def _rebind(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # --- aggregation ------------------------------------------------------------

    def metrics(self, n_passes: int) -> dict[str, float]:
        """Per-layer figures for one pass over the batch, averaged over the
        n_passes traced passes: calls and self seconds of every span name,
        the scalar counters, and the accept ratios."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names = [f"{layer_name(m)}.{f}" for m, fs in SPANNED.items() for f in fs]
        names += sorted({name for *_, name in SPANNED_METHODS})
        out = {f"{name}.{stat}": 0.0 for name in names for stat in ("calls", "self_s")}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
        out["scalars.mul.calls"] = self.counts["scalars.mul"]
        out["scalars.inv.calls"] = self.counts["scalars.inv"]
        out["weyl.closure.elements"] = sum(self.results["weyl.closure"])
        # brute-force order / SNF solves made inside the brute force
        snf = sum(1 for i, span in enumerate(self.spans)
                  if span[0] == "abelian.smith_normal_form"
                  and self._inside(i, "weyl.weyl_bruteforce"))
        out["weyl.weyl_bruteforce.snf_solves"] = snf
        out["trace.spans"] = len(self.spans)
        out = {k: v / n_passes for k, v in out.items()}
        brute = sum(self.results["weyl.weyl_bruteforce"])
        out["weyl.weyl_bruteforce.accept_ratio"] = brute / snf if snf else 0.0
        checks = self.results["fine.spectrum_check"]
        out["fine.spectrum_check.accept_ratio"] = sum(checks) / len(checks) if checks else 0.0
        return out

    def _inside(self, idx: int, ancestor: str) -> bool:
        """True when span idx runs below a span named ancestor."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False
