"""Record the stdout digests that pin each job's exact output.

Run from the root of a checkout whose outputs are known good:

    python3 bench/record.py

For every workload and each seed in ``SEEDS`` (the default seed and one
held out from tuning) it runs the batch once, requires every job to
pass its checks, and writes the inputs digest and the per-job stdout
sha256 digests to ``bench/expected.json``.  Later runs at those seeds
fail any job whose stdout bytes differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 1)


def main() -> int:
    import worker  # puts src/ on the path; run from the checkout root
    from checks import check_job
    from workloads import WORKLOADS, inputs_digest, make_jobs

    recorded: dict = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            jobs = make_jobs(workload, seed)
            digests = []
            for job in jobs:
                result = worker.run_job(job["argv"])
                problems = check_job(job, result)
                if problems:
                    print(f"{workload} seed {seed} {job['argv'][:2]}: {problems}",
                          file=sys.stderr)
                    return 1
                digests.append(hashlib.sha256(result["stdout"].encode()).hexdigest())
            recorded.setdefault(workload, {})[str(seed)] = {
                "inputs": inputs_digest(jobs), "stdout": digests}
            print(f"recorded {workload} seed {seed}: {len(jobs)} jobs")
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
