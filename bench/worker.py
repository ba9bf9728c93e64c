"""One worker process of a benchmark run, single-threaded.

Set-up is everything from process start to the first timed job: the
interpreter, ``import heisgrad``, seeded input generation and one
untimed warm-up job.  Then, unless ``--setup-only``, passes over the
batch run back to back through the in-process
``heisgrad.cli.main(argv)`` for ``--seconds``, with reference work
(``reference.py``) between the jobs.
With ``--trace 1`` the first half of that time runs untraced passes and
the second half traced ones, followed by the layer microbenchmarks.

The worker prints one JSON object on stdout: per-job timings, the
captured outputs of the first pass, the stdout digests of every pass
and, when traced, the per-layer figures.  ``run.py`` starts it and
checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import heisgrad.cli  # noqa: E402

import workloads  # noqa: E402
from run import batch_time, pass_seconds  # noqa: E402

# Seconds of reference work before a job, as a share of the job's time
# in the pass before, and before each job of a worker's first pass.
REF_SHARE = 0.5
FIRST_REF_S = 0.2


class Reference:
    """The reference process (``reference.py``), pinned with this one to
    one CPU so that it runs where the jobs run."""

    def __init__(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, seconds: float) -> tuple[float, float, int]:
        """Wall and CPU seconds of the reference work repeated until at
        least seconds have passed, and how many times it ran."""
        self.proc.stdin.write(f"{seconds!r}\n")
        self.proc.stdin.flush()
        wall, cpu, units = self.proc.stdout.readline().split()
        return float(wall), float(cpu), int(units)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run_job(argv: list[str]) -> dict:
    """Run one CLI job in-process and capture what a shell would see."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = heisgrad.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_batch(jobs: list[dict], ref: Reference, ref_s: list[float], tracer=None,
              first_id: int = 0) -> tuple[dict, list[dict]]:
    """One pass over the batch, each job preceded by ref_s[i] seconds of
    reference work.  Returns per-job wall and CPU seconds, those of the
    reference work and its repetitions, and the job results; a tracer
    stamps its spans with job ids from first_id."""
    timing = {k: [] for k in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s", "ref_units")}
    results = []
    for i, job in enumerate(jobs):
        for key, value in zip(("ref_wall_s", "ref_cpu_s", "ref_units"),
                              ref.time(ref_s[i])):
            timing[key].append(value)
        if tracer is not None:
            tracer.job = first_id + i
        cpu0, wall0 = time.process_time(), time.perf_counter()
        results.append(run_job(job["argv"]))
        timing["wall_s"].append(time.perf_counter() - wall0)
        timing["cpu_s"].append(time.process_time() - cpu0)
    return timing, results


def run_passes(jobs: list[dict], ref: Reference, seconds: float, tracer=None,
               min_passes: int = 1):
    """Passes over the batch until the next one would end after seconds.
    Before each job the reference work runs for REF_SHARE of the job's
    time in the pass before (of FIRST_REF_S in the first pass), so that
    it samples the machine's speed next to the job and for long enough
    to average out its swings.  Returns the per-pass timings, per-pass
    stdout digests and the results of the first pass."""
    passes, digests, first, spent = [], [], None, 0.0
    ref_s = [FIRST_REF_S] * len(jobs)
    while len(passes) < min_passes or spent + pass_seconds(passes[-1]) <= seconds:
        timing, results = run_batch(jobs, ref, ref_s, tracer,
                                    first_id=len(passes) * len(jobs))
        passes.append(timing)
        digests.append([_digest(r["stdout"]) for r in results])
        first = first or results
        spent += pass_seconds(timing)
        ref_s = [REF_SHARE * t for t in timing["wall_s"]]
    return passes, digests, first


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_spans(tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, job]) + "\n")


def measure(args, jobs: list[dict], ref: Reference, report: dict) -> None:
    """Run the timed passes, and with --trace 1 the traced passes and the
    microbenchmarks, and add what they give to the report."""
    if args.trace:
        from tracing import Tracer

        import micro

        # the first pass after the warm-up runs colder than the rest
        passes, digests, first = run_passes(jobs, ref, args.seconds / 2, min_passes=2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_digests, _ = run_passes(jobs, ref, args.seconds / 2,
                                                   tracer=tracer)
        finally:
            tracer.uninstall()
        digests += traced_digests
        report["traced_passes"] = traced
        report["missing_hooks"] = tracer.missing
        layers = tracer.metrics(len(traced))
        # the mean traced pass is the base of the layer shares, which
        # are averaged over the same passes
        layers["trace.wall_s"] = sum(sum(p["wall_s"]) for p in traced) / len(traced)
        layers["trace.overhead_frac"] = batch_time(traced) / batch_time(passes[1:]) - 1
        layers["trace.passes"] = len(traced)
        layers.update(micro.run(args.seed))
        report["layers"] = layers
        _write_spans(tracer, os.path.join(
            ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        passes, digests, first = run_passes(jobs, ref, args.seconds)
    report["passes"] = passes
    report["digests"] = digests
    report["results"] = first


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after set-up, without timed passes")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the start")
    args = ap.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed)
    warm = run_job(workloads.WARMUP[args.workload])
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "inputs_digest": workloads.inputs_digest(jobs),
              "warmup_rc": warm["rc"], "heisgrad": heisgrad.cli.__file__, "jobs": jobs}
    if not args.setup_only:
        ref = Reference()
        try:
            measure(args, jobs, ref, report)
        finally:
            ref.close()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
