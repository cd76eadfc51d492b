"""Benchmark of the nordenhs CLI workflows, end to end or layer by layer.

    python3 perfbench/run.py --workload pipeline|fd_frames|oracles \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the job inputs (see
jobs.py); the program only sees the generated inputs.  The workload runs in
one worker process; with --trace 0, set-up-only launches before and after it
time set-up.  Every job's output is then checked against the benchmark's own
geometry (checks.py).  Times are scaled to a nominal machine speed by a
reference that this process times between jobs (reference.py).  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Raw job records go to perfbench/_runs/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import jobs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")
# Set-up-only launches on each side of the workload launch: set-up is timed
# 2 * SETUP_PROBES + 1 times, spread over the run, and the median reported.
SETUP_PROBES = 5
# Time allowed past --seconds for the set-up launches, the warm-up job and
# the round in progress when --seconds run out.
DEADLINE_MARGIN_S = 90.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    """The run cannot produce a result."""


class Worker:
    """One worker process, killed if it is still running at the deadline."""

    def __init__(self, args, run_dir, setup_only, deadline):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--run-dir", run_dir, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, **{k: "1" for k in ONE_THREAD})
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                        self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise RunError("worker did not get ready")

    def serve_references(self):
        """Time the speed reference each time the worker hands over;
        return the reference times."""
        refs = []
        for line in self.proc.stdout:
            if line.strip() != "ref":
                break
            refs.append(reference.measure())
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
        return refs

    def finish(self):
        """Wait for the worker to end; raise RunError unless it exited 0."""
        try:
            self.proc.communicate()
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.watchdog.cancel()
        if self.proc.returncode != 0:
            killed = self.proc.returncode == -9
            raise RunError("worker ran past the deadline" if killed
                           else f"worker exited {self.proc.returncode}")


def measure(args, run_dir):
    """Run the workload, and with --trace 0 time set-up in set-up-only
    launches before and after the workload's own launch; return (set-up
    times, each with the reference times before and after it, reference
    times around the jobs, manifest)."""
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    setups = []
    reference.measure()
    last_ref = reference.measure()

    def setup_only(i):
        nonlocal last_ref
        worker = Worker(args, os.path.join(run_dir, f"setup{i}"), True, deadline)
        worker.finish()
        ref = reference.measure()
        setups.append((worker.setup_s, last_ref, ref))
        last_ref = ref

    probes = 0 if args.trace else SETUP_PROBES
    for i in range(probes):
        setup_only(i)
    worker = Worker(args, run_dir, False, deadline)
    try:
        refs = worker.serve_references()
    finally:
        worker.finish()
    # the first reference follows the warm-up job, the last the last job
    setups.append((worker.setup_s, last_ref, refs[0]))
    last_ref = refs[-1]
    for i in range(probes, 2 * probes):
        setup_only(i)
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return setups, refs, json.load(fh)


def scaled_jobs(timed, refs):
    """Each job's time at the nominal speed: every CLI call is scaled by
    the reference times right before and after it."""
    out, i = [], 0
    for job in timed:
        out.append(sum(reference.scaled(t, refs[i + c], refs[i + c + 1])
                       for c, t in enumerate(job["call_s"])))
        i += len(job["call_s"])
    return out


def report_of(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_job(workload, spec, job, sample_path):
    """Problems with one completed job's outputs."""
    if workload == "oracles":
        code, out, _ = job["calls"][0]
        return checks.check_verify(code, report_of(out), spec["a"], spec["b"])
    with open(sample_path) as fh:
        doc = json.load(fh)
    problems = checks.check_samples(doc, spec["a"], spec["b"], spec["center"],
                                    jobs.COUNT[workload], workload == "fd_frames")
    code, out, _ = job["calls"][1]
    return problems + checks.check_classify(code, report_of(out), spec["a"],
                                            spec["b"], spec["center"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nordenhs", "cli.py")):
        print(f"run.py: no nordenhs sources under {ROOT}/src", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(RUNS, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setups, refs, manifest = measure(args, run_dir)
        corpus = jobs.corpus()
        timed = manifest["jobs"]
        records = [("warmup", manifest["warmup"])] + [
            (str(k), job) for k, job in enumerate(timed)]
        problems = {}
        for name, job in records:
            if not job["failed"]:
                path = os.path.join(run_dir, "samples", f"{name}.json")
                found = check_job(args.workload, corpus[job["spec"]], job, path)
                if found:
                    problems[name] = found
                    job["failed"] = True
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    spec_of = {name: job["spec"] for name, job in records}
    known = jobs.KNOWN_FAULTS.get(args.workload, {})
    unknown = [name for name in problems if spec_of[name] not in known]
    done = [s for s, j in zip(scaled_jobs(timed, refs), timed) if not j["failed"]]
    if args.trace:
        # per-job means, all times scaled by the run's median reference time
        speed = reference.NOMINAL_S / statistics.median(refs)
        metrics = {name: {"value": value * speed if name.endswith("_s") else value,
                          "unit": unit_of(name)}
                   for name, value in manifest["trace"].items()}
    elif done:
        metrics = {
            "setup_s": {"value": statistics.median(reference.scaled(*s) for s in setups),
                        "unit": "s"},
            "job_s_p50": {"value": statistics.median(done), "unit": "s"},
            "items_per_s": {"value": len(done) * jobs.items(args.workload) / sum(done),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": manifest["peak_rss_mb"], "unit": "MB"},
        }
    else:
        metrics = {}
    exits = {str(k): j["calls"][-1][2].strip().splitlines()[-1:]
             for k, j in enumerate(timed) if j["calls"][-1][0] != 0}
    with open(os.path.join(RUNS, tag + ".json"), "w") as fh:
        json.dump({"setups": setups, "specs": [j["spec"] for j in timed],
                   "call_s": [j["call_s"] for j in timed], "ref_s": refs,
                   "failed_exits": exits, "problems": problems,
                   "peak_rss_mb": manifest["peak_rss_mb"],
                   "trace": manifest.get("trace")}, fh, indent=1)
    for name, found in problems.items():
        spec = spec_of[name]
        note = f" (known fault: {known[spec]})" if spec in known else ""
        print(f"job {name}, spec {spec}{note}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"correct": not unknown and bool(done), "attempted": len(timed),
                      "failed": len(timed) - len(done), "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("jsonio.bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
