"""One workload in one process: set up, warm up, then time jobs.

Started by run.py, never by hand:

    worker.py --root R --run-dir D --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints `ready` once set-up is done (imports and input files), runs one
untimed warm-up job and then whole rounds of timed jobs until S seconds
have passed, and writes the job records to D/manifest.json.  Before the
first timed job and after each CLI call of a timed job it prints `ref` and
waits for `go` on stdin while run.py times the speed reference in its own
process.  Outputs are checked by run.py afterwards, so this process holds
only the program's work and its peak memory is the program's.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import jobs


def call(cli, argv):
    """One CLI call in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed job, not a dead run
            traceback.print_exc()
            code = "traceback"
    return code, out.getvalue(), err.getvalue()


def run_job(cli, spec, calls, after_call):
    """Run the job's CLI calls in order, stopping at the first failure, and
    `after_call()` after each call, outside the timed intervals."""
    results, call_s = [], []
    for argv in calls:
        start = time.perf_counter()
        results.append(call(cli, argv))
        call_s.append(time.perf_counter() - start)
        after_call()
        if results[-1][0] != 0:
            break
    return {"spec": spec, "wall_s": sum(call_s), "call_s": call_s,
            "calls": [list(r) for r in results], "failed": results[-1][0] != 0}


def hand_over():
    """Let run.py time the speed reference while this process waits."""
    print("ref", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("worker.py: run.py went away")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from nordenhs import cli

    corpus = jobs.corpus()
    warmup_spec = jobs.warmup_spec(args.workload, args.seed)
    samples_dir = os.path.join(args.run_dir, "samples")
    os.makedirs(samples_dir, exist_ok=True)
    center_files = {}
    if args.workload != "oracles":
        for k in (warmup_spec, *jobs.ROUND):
            center_files[k] = os.path.join(args.run_dir, f"center{k}.json")
            with open(center_files[k], "w") as fh:
                fh.write(jobs.center_doc(corpus[k]["center"]))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def job(name, k, after_call=hand_over):
        out = os.path.join(samples_dir, f"{name}.json")
        argvs = jobs.argvs(args.workload, corpus[k], center_files.get(k), out)
        return run_job(cli, k, argvs, after_call)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    warmup = job("warmup", warmup_spec, after_call=lambda: None)
    if tracer:
        tracer.reset()
    timed = []
    hand_over()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for k in jobs.round_order(args.workload, args.seed, len(timed) // len(jobs.ROUND)):
            timed.append(job(str(len(timed)), k))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    manifest = {"warmup": warmup, "jobs": timed, "peak_rss_mb": peak_rss_mb}
    if tracer:
        manifest["trace"] = tracer.metrics(len(timed), sum(j["wall_s"] for j in timed))
    with open(os.path.join(args.run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
