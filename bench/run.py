"""heisgrad benchmark runner.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload enumerate --seed 0 --seconds 25 --trace 0

Load model: one client in a closed loop.  A run starts ``STARTS``
single-threaded worker processes (``worker.py``) one after another, never
two at once.  Each generates the seeded batch and runs one untimed
warm-up job; the first ``WORKERS`` then run passes over the batch back
to back through the in-process ``heisgrad.cli.main(argv)`` for their
share of ``--seconds``.

Times are given at the reference speed: each timed pass is multiplied
by the machine's speed while it ran, which fixed reference work timed
between its jobs gives (see ``batch_time``), and set-up by the run's
median speed.  The raw times are printed too.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:

* ``wall_s``: wall seconds to finish one batch (time to solution), the
  mean over the passes of the run;
* ``cpu_s``: the same for the worker's user + sys CPU seconds;
* ``peak_rss_mb``: the largest peak resident set size of the workers;
* ``setup_s``: worker start to the first timed job (interpreter,
  ``import heisgrad``, input generation, warm-up), median over the
  starts, multiplied by the median speed of the run's passes.

``--trace 1`` runs one worker whose untraced and traced passes give the
per-layer metrics of ``BENCHMARK.json`` (see ``tracing.py`` and
``micro.py``) and the tracing overhead.

Every job's stdout is checked (see ``checks.py``), compared with the
recorded digests in ``expected.json`` when the seed has any, and
compared between passes.  A job that exits nonzero, raises or fails a
check counts in ``failed`` for every pass it ran in.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STARTS = 7
WORKERS = 3
RUN_TIMEOUT_S = 170  # every worker together, within the 180 s a run may take


def start_worker(args, timeout: float, *extra: str) -> dict:
    """Run worker.py to completion and return its JSON report.  The
    worker and its reference process form a process group, killed
    together if the worker outlives timeout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    """BENCHMARK.json at the root of the checkout: workloads and metrics."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def job_failures(report: dict, recorded: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every timed job of the run."""
    from checks import check_job

    jobs, results, digests = report["jobs"], report["results"], report["digests"]
    attempted = len(jobs) * len(digests)
    if recorded is not None and recorded["inputs"] != report["inputs_digest"]:
        return attempted, attempted, [f"inputs digest {report['inputs_digest']} differs "
                                      f"from the recorded {recorded['inputs']}"]
    messages, bad_job = [], []
    for i, (job, result) in enumerate(zip(jobs, results)):
        problems = check_job(job, result)
        if recorded is not None and digests[0][i] != recorded["stdout"][i]:
            problems.append("stdout differs from the recorded digest")
        messages += [f"job {i} {job['argv'][:2]}: {p}" for p in problems]
        bad_job.append(bool(problems))
    failed = 0
    for b, batch in enumerate(digests):
        for i, d in enumerate(batch):
            if bad_job[i]:
                failed += 1
            elif d != digests[0][i]:
                failed += 1
                messages.append(f"job {i}: stdout of pass {b} differs from pass 0")
    return attempted, failed, messages


# Seconds one reference.reference_work takes on a shared 2-vCPU VM at
# its usual speed: the speed that every time is rescaled to.
REF_S = 0.17


def speed(ref_seconds: float, units: int) -> float:
    """REF_S over the mean time of one reference work: above 1 when the
    machine ran faster than usual."""
    return REF_S * units / ref_seconds


def pass_seconds(timing: dict) -> float:
    """Wall seconds of one pass, its jobs and its reference work."""
    return sum(timing["wall_s"]) + sum(timing["ref_wall_s"])


def batch_time(passes: list[dict], key: str = "wall_s") -> float:
    """Seconds for one batch at the reference speed: the mean over the
    passes of the pass's time multiplied by its speed.

    On a shared machine the speed of the interpreter swings by up to 1.7x
    in phases from milliseconds to minutes, which moves a raw time as much
    as the program's own cost does.  The reference work runs between the
    jobs, for half as long as they do, on the same CPU, in a process that
    runs no code of the program, so the product keeps the program's cost
    and drops most of the machine's swings.  The mean, not the median, of
    the few passes a run holds: once each pass is rescaled it is the
    steadier of the two.
    """
    return statistics.mean(sum(p[key]) * speed(sum(p["ref_" + key]), sum(p["ref_units"]))
                             for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "heisgrad", "cli.py")):
        print("error: run from the root of a heisgrad checkout (src/heisgrad missing)",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from tracing import SPANNED, layer_name

    # Timed passes are spread over WORKERS processes that run one after
    # another: a process's memory layout shifts its speed by several
    # percent, so one process is one noisy sample.  Time a worker leaves
    # unused passes to the next.  Every start is a set-up sample.
    workers = 1 if args.trace else WORKERS
    reports, spent, deadline = [], 0.0, time.monotonic() + RUN_TIMEOUT_S
    for i in range(workers):
        budget = max(args.seconds - spent, 0.0) / (workers - i)
        timeout = max(deadline - time.monotonic(), 1.0)
        reports.append(start_worker(args, timeout, "--seconds", repr(budget)))
        spent += sum(map(pass_seconds, reports[-1]["passes"]))
    starts = reports + [start_worker(args, max(deadline - time.monotonic(), 1.0), "--setup-only")
                        for _ in range(0 if args.trace else STARTS - workers)]
    report = reports[0]
    for extra in reports[1:]:
        report["passes"] += extra["passes"]
        report["digests"] += extra["digests"]
        if extra["inputs_digest"] != report["inputs_digest"]:
            raise RuntimeError("workers generated different inputs")
    setups = [r["setup_s"] for r in starts]
    if not os.path.abspath(report["heisgrad"]).startswith(os.path.abspath("src")):
        print(f"error: imported heisgrad from {report['heisgrad']}", file=sys.stderr)
        return 2

    recorded = load_json("expected.json").get(args.workload, {}).get(str(args.seed))
    attempted, failed, messages = job_failures(report, recorded)
    for r in starts:
        if r["warmup_rc"] != 0:
            messages.append(f"warm-up job exited {r['warmup_rc']}")
            failed += 1
    for m in messages:
        print(m, file=sys.stderr)

    passes = report["passes"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes over "
          f"{len(report['jobs'])} jobs, inputs sha256 {report['inputs_digest']}, "
          f"error_rate {failed / attempted:.4f}")
    if args.trace:
        layers = report["layers"]
        print("  untraced pass wall_s: " + " ".join(f"{sum(p['wall_s']):.4f}" for p in passes))
        print("  traced pass wall_s: " + " ".join(f"{sum(p['wall_s']):.4f}"
                                                 for p in report["traced_passes"]))
        if report["missing_hooks"]:
            print("hooks not found: " + ", ".join(report["missing_hooks"]), file=sys.stderr)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        for name in sorted(layers):
            print(f"  {name} = {layers[name]}")
        for layer in map(layer_name, SPANNED):
            share = sum(v for k, v in layers.items()
                        if k.startswith(layer + ".") and k.endswith(".self_s"))
            print(f"  share of traced time in {layer}.*: {share / layers['trace.wall_s']:.3f}")
    else:
        # set-ups are too short to time the reference work next to each;
        # the passes, in the same run, give the machine's speed
        speeds = [speed(sum(p["ref_wall_s"]), sum(p["ref_units"])) for p in passes]
        metrics = {
            "wall_s": {"value": batch_time(passes, "wall_s"), "unit": "s"},
            "cpu_s": {"value": batch_time(passes, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups) * statistics.median(speeds),
                        "unit": "s"},
        }
        print("  raw pass wall_s: " + " ".join(f"{sum(p['wall_s']):.4f}" for p in passes))
        print("  speed in pass: " + " ".join(f"{x:.3f}" for x in speeds))
        print("  raw setup_s: " + " ".join(f"{s:.4f}" for s in setups))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
