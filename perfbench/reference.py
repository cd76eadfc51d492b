"""Machine-speed reference for scaling wall times to a nominal speed.

The benchmark shares two vCPUs with other tenants, and their load slows
every process here by up to 1.8x for minutes at a time (README, "Noise").
A fixed piece of pure-Python work is timed right before and after each
timed interval; the interval's wall time times NOMINAL_S over the mean of
those two reference times is its time at the nominal speed.  run.py times
the reference in its own process, which never imports nordenhs, while the
worker waits, so the program's heap, garbage-collector settings and other
interpreter state cannot change the reference.
"""

import json
import time

# The kernel's median time on an uncontended 2.1 GHz Xeon vCPU (KVM guest),
# Python 3.11; scaled times are seconds at that speed.
NOMINAL_S = 0.013

_XS = [((i * 7919) % 1000) / 997.0 for i in range(300)]


def _kernel():
    acc = 0.0
    for _ in range(28):
        text = json.dumps([format(x, ".17g") for x in _XS])
        acc += sum(float(v) for v in json.loads(text))
        table = {i: x * x for i, x in enumerate(_XS)}
        acc += sum(table.values())
        acc += sum(i * i % 7 for i in range(3000))
    return acc


def measure():
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(wall_s, ref_before, ref_after):
    """`wall_s` at the nominal speed, given the reference times around it."""
    return wall_s * NOMINAL_S / (0.5 * (ref_before + ref_after))
