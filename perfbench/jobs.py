"""Workload definitions: the jobs one run executes, made from the run's seed.

Job inputs come from a fixed corpus of specs (a, b, centre, sample seed).
A run times whole rounds of the same specs (ROUND), each round in an order
the run seed shuffles, so every run attempts the same operations and fails
the same share of them.  Every job of a workload has the same shape
(command, N, m).
"""

import json
import math
import random

WORKLOADS = ("pipeline", "fd_frames", "oracles")

M = 4  # complex dimension: the CLI default, never passed on the command line
COUNT = {"pipeline": 2000, "fd_frames": 900}  # samples per sampling job
ORACLE_CHECKS = 19  # invariant checks in one `verify all` report

CORPUS = 64
# The specs every run times, once per round: 1, 9, ..., 49, 57.  Spec 49
# is among them on purpose (KNOWN_FAULTS).
ROUND = tuple(range(1, CORPUS, 8))
# Jobs the program gets wrong on every run, by workload and spec.  They stay
# in each round and count as failed; any other wrong output makes the run
# incorrect.  The README ("Corpus") and CHANGES.md describe the fault.
KNOWN_FAULTS = {
    "pipeline": {49: "sample seed 49, point 1550: non-orthogonal tangent basis, exit 0"},
}


def corpus():
    """The job specs: dicts with a, b, center and sample_seed."""
    rng = random.Random("nordenhs-perfbench-corpus")
    out = []
    for k in range(CORPUS):
        r = rng.uniform(0.5, 5.0)
        theta = rng.uniform(-math.pi, math.pi)
        center = [rng.uniform(-2.0, 2.0) for _ in range(2 * M)]
        out.append({"a": r * math.cos(theta), "b": r * math.sin(theta),
                    "center": center, "sample_seed": k})
    return out


def warmup_spec(workload, seed):
    """Corpus index of the untimed warm-up job: a spec outside the round."""
    rest = [k for k in range(CORPUS) if k not in ROUND]
    return random.Random(f"{workload}:{seed}:warmup").choice(rest)


def round_order(workload, seed, r):
    """Corpus indices of round r's jobs, in the order they run."""
    order = list(ROUND)
    random.Random(f"{workload}:{seed}:{r}").shuffle(order)
    return order


def center_doc(center):
    """A one-point cloud file holding the centre, for `--center-file`."""
    return json.dumps({"version": 1, "m": M, "kind": "points", "points": [center]})


def argvs(workload, spec, center_file=None, out=None):
    """The CLI calls of one job, in order."""
    ab = [f"--a={spec['a']!r}", f"--b={spec['b']!r}"]
    if workload == "oracles":
        return [["verify", "all", *ab, "--seed", str(spec["sample_seed"])]]
    sample = ["sample", *ab, "--count", str(COUNT[workload]),
              "--seed", str(spec["sample_seed"]), "--center-file", center_file,
              "--with-frames", "--out", out]
    if workload == "fd_frames":
        sample.append("--fd")
    return [sample, ["classify", "--in", out]]


def items(workload):
    """Items one completed job delivers: samples, or invariant checks."""
    return ORACLE_CHECKS if workload == "oracles" else COUNT[workload]
