"""Layer microbenchmarks L1-L3 on seeded dense inputs.

L1: ``CycloNum`` multiplication and inversion at conductors 4, 16, 48.
L2: ``rref`` of a dense 10x10 matrix at conductor 16.
L3: ``Algebra.bracket`` of two dense vectors in a dimension-10 twisted
    algebra at conductor 16.

Each figure is the median over several timed repetitions.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from heisgrad._linalg import rref
from heisgrad.liealg import twisted
from heisgrad.scalars import CycloCtx


def _dense(ctx: CycloCtx, rng: random.Random):
    """A field element with every coordinate a nonzero small fraction."""
    x = ctx.zero()
    for k in range(ctx.degree):
        q = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        x = x + ctx.from_fraction(q) * ctx.zeta(k)
    return x


def _median_time(fn, reps: int, rounds: int = 5) -> float:
    """Median over rounds of the mean seconds per call of fn()."""
    per_call = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - start) / reps)
    return statistics.median(per_call)


def run(seed: int) -> dict[str, float]:
    rng = random.Random(f"micro:{seed}")
    out: dict[str, float] = {}
    for n, mul_reps, inv_reps in ((4, 400, 200), (16, 200, 30), (48, 100, 10)):
        ctx = CycloCtx(n)
        a, b = _dense(ctx, rng), _dense(ctx, rng)
        out[f"scalars.mul_us.n{n}"] = 1e6 * _median_time(lambda: a * b, mul_reps)
        out[f"scalars.inv_us.n{n}"] = 1e6 * _median_time(a.inv, inv_reps)
    ctx = CycloCtx(16)
    rows = [tuple(_dense(ctx, rng) for _ in range(10)) for _ in range(10)]
    out["linalg.rref_ms.n16_10x10"] = 1e3 * _median_time(lambda: rref(rows), 1, rounds=3)
    alg = twisted([_dense(ctx, rng) for _ in range(4)])
    u = tuple(_dense(ctx, rng) for _ in range(alg.dim))
    v = tuple(_dense(ctx, rng) for _ in range(alg.dim))
    out["liealg.bracket_us.dim10_n16"] = 1e6 * _median_time(lambda: alg.bracket(u, v), 20)
    return out
