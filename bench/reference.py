"""Fixed reference work that tells how fast the machine runs at a moment.

A benchmark worker starts this file as a process of its own, pinned with
the worker to one CPU, and has it run between the jobs.  Each line read
from stdin is a number of seconds; the process runs ``reference_work``
until at least that long has passed and answers with one line: the wall
and CPU seconds taken and how many times the work ran.  It exits at the
end of its input.

A process of its own keeps the program's heap, and anything else the
program leaves behind in its process, from changing the cost of the
reference work.
"""

from __future__ import annotations

import gc
import sys
import time
from fractions import Fraction

# Generators of the symmetric group on 8 points, a transposition and an
# 8-cycle, whose closure the reference work computes.
GENS = ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0))


def reference_work() -> None:
    """Fixed pure-Python work of about 0.17 s made of what the program
    spends its time on: exact rational arithmetic, and a breadth-first
    closure of a permutation group (40320 tuples hashed into a set, a
    working set of some MB) in the manner of the Weyl group closure."""
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i, i + 2) * Fraction(2, 3)
    seen = {tuple(range(8))}
    frontier = list(seen)
    while frontier:
        new = []
        for p in frontier:
            for g in GENS:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new


def main() -> int:
    gc.disable()  # the work makes no cycles; keep collections out of its time
    for line in sys.stdin:
        seconds = float(line)
        units, cpu0, wall0 = 0, time.process_time(), time.perf_counter()
        while units == 0 or time.perf_counter() - wall0 < seconds:
            reference_work()
            units += 1
        print(time.perf_counter() - wall0, time.process_time() - cpu0, units, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
