"""Self-test of the benchmark itself.

Run from the root of a checkout:

    python3 bench/selftest.py

It shows that
1. the same seed gives byte-identical inputs, also under another hash
   seed, and different seeds give different inputs;
2. every workload finishes a zero-second run (one pass per worker)
   with error rate 0;
3. the output checks are live: a deliberately altered output line of
   each job kind is caught, and so is a stdout that differs from its
   recorded digest;
4. the traced run reports every per-layer metric of ``BENCHMARK.json``
   on every workload and confirms the workload design recorded in
   ``predictions.json``.

Exit code 0 when every part passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def inputs_digests(seed: int, hashseed: str) -> dict:
    code = ("import json, sys; sys.path[:0] = ['src', sys.argv[1]]; import workloads; "
            "print(json.dumps({w: workloads.inputs_digest(workloads.make_jobs(w, int(sys.argv[2])))"
            " for w in workloads.WORKLOADS}))")
    out = subprocess.run([sys.executable, "-c", code, HERE, str(seed)], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": hashseed})
    return json.loads(out.stdout)


def altered(result: dict, edit) -> dict:
    out = json.loads(result["stdout"])
    edit(out)
    return {**result, "stdout": json.dumps(out, indent=2, sort_keys=True) + "\n"}


def main() -> int:
    sys.path.insert(0, HERE)
    import worker  # puts src/ on the path
    from checks import check_job
    from run import job_failures, load_benchmark, load_json
    from workloads import inputs_digest, make_jobs

    bench = load_benchmark()
    workload_names = [w["name"] for w in bench["workloads"]]

    # 1. determinism of the inputs
    a, b = inputs_digests(5, "1"), inputs_digests(5, "2")
    expect(a == b, "same seed gives byte-identical inputs under two hash seeds")
    c = inputs_digests(6, "1")
    expect(all(a[w] != c[w] for w in workload_names), "different seeds give different inputs")

    # 2. a zero-second run of every workload, error rate 0
    for w in workload_names:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                               "--seed", "3", "--seconds", "0", "--trace", "0"],
                              capture_output=True, text=True)
        res = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        expect(res.get("correct") is True and res.get("failed") == 0,
               f"{w}: a zero-second run with error rate 0 ({res.get('attempted')} jobs)")

    # 3. the checks catch altered outputs
    def bump(key):
        def edit(out):
            out[key] = out[key] + 1
        return edit

    edits = {
        "weyl": lambda o: o["gradings"][0].__setitem__("closure_order",
                                                       o["gradings"][0]["closure_order"] * 2),
        "enumerate": bump("count"),
        "verify": lambda o: o.__setitem__("ok", False),
        "universal-group": lambda o: o.__setitem__("universal_group", "Z^9"),
        "decompose": lambda o: o["params"].__setitem__("l", o["params"]["l"] + 1),
        "color": lambda o: o["color_type"]["dims"][0].__setitem__(
            "dim", o["color_type"]["dims"][0]["dim"] + 1),
    }
    seen = set()
    for w in workload_names:
        for job in make_jobs(w, 0):
            kind = job["expect"]["kind"]
            if kind in seen:
                continue
            seen.add(kind)
            result = worker.run_job(job["argv"])
            expect(not check_job(job, result), f"{kind}: unaltered output passes its check")
            expect(bool(check_job(job, altered(result, edits[kind]))),
                   f"{kind}: an altered output line is caught")
    jobs = make_jobs("weyl-brute", 0)
    brute = next(j for j in jobs if "--brute" in j["argv"])
    res = worker.run_job(brute["argv"])
    expect(bool(check_job(brute, altered(res, lambda o: o["gradings"][0].__setitem__(
        "brute_order", o["gradings"][0]["brute_order"] + 1)))),
        "weyl --brute: a brute order that differs from the closure is caught")

    recorded = load_json("expected.json").get("enumerate", {}).get("0")
    expect(recorded is not None, "digests are recorded for seed 0")
    if recorded is not None:
        jobs = make_jobs("enumerate", 0)
        results = [worker.run_job(j["argv"]) for j in jobs]
        digests = [hashlib.sha256(r["stdout"].encode()).hexdigest() for r in results]
        report = {"jobs": jobs, "results": results, "digests": [digests],
                  "inputs_digest": inputs_digest(jobs)}
        expect(job_failures(report, recorded)[1] == 0, "recorded digests match at seed 0")
        # same content, other whitespace: only the digest can tell
        respaced = json.dumps(json.loads(results[0]["stdout"]), indent=1, sort_keys=True)
        expect(not check_job(jobs[0], {**results[0], "stdout": respaced}),
               "a re-indented output still passes the content checks")
        tampered = {**report, "results": [{**results[0], "stdout": respaced}] + results[1:],
                    "digests": [[hashlib.sha256(respaced.encode()).hexdigest()] + digests[1:]]}
        expect(job_failures(tampered, recorded)[1] >= 1,
               "a re-indented output is caught by its recorded digest")

    # 4. traced runs: every per-layer metric, and the workload design
    names = [m["name"] for m in bench["per_layer"]]
    layers, shares = {}, {}
    for w in workload_names:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                               "--seed", "3", "--seconds", "4", "--trace", "1"],
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 else {}
        expect(res.get("correct") is True and list(res.get("metrics", {})) == names,
               f"{w}: traced run reports every per-layer metric")
        # every span's figures and each module's share of the traced wall time
        layers[w] = dict(re.findall(r"^  (\S+) = (\S+)$", proc.stdout, re.M))
        shares[w] = {m: float(v) for m, v in
                     re.findall(r"^  share of traced time in (\S+)\.\*: (\S+)$", proc.stdout, re.M)}
    if all(shares.values()):
        expect(shares["enumerate"]["weyl"] == 0, "weyl.* self time is zero on enumerate")
        expect(shares["weyl-closure"]["weyl"] >= 0.5,
               f"weyl.* is {shares['weyl-closure']['weyl']:.2f} >= 0.5 of the traced time "
               "on weyl-closure")
        weyl = {k: float(v) for k, v in layers["weyl-brute"].items()
                if k.startswith("weyl.") and k.endswith(".self_s")}
        expect(max(weyl, key=weyl.get) == "weyl.weyl_bruteforce.self_s",
               "weyl_bruteforce is the largest weyl term on weyl-brute")
        expect(shares["roundtrip"]["linalg"] > shares["enumerate"]["linalg"],
               f"the linalg.* share is higher on roundtrip ({shares['roundtrip']['linalg']:.2f}) "
               f"than on enumerate ({shares['enumerate']['linalg']:.2f})")

    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
