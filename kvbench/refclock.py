"""A reference clock for timing on a host whose speed drifts.

On a shared virtual machine the same code can run up to twice as slow for
seconds to minutes at a time: process CPU time slows down with wall time, so
the host's other tenants slow the processor itself down. Wall time
additionally gains bursts in which the process is not running at all, which
fill the upper tail of operation times. The benchmark therefore times the
program in process CPU time (`cpu_time`), and runs a fixed calibration
kernel once before every operation. An operation's time is scaled by REF_MS
over the median CPU time of the kernel runs around it, and a set-up's time
by REF_MS over the median of the SETUP_TICKS kernel runs that follow it, so
a time reads as the time the same work would take on a host where the kernel
takes REF_MS. The kernel runs between operations, never back to back: run
in a burst it keeps its data in cache and reads faster by a share that
changes with the host's load. The kernel uses only numpy, the interpreter
and the file system, never kvdiff, so a change to the program cannot change
it.
"""

import json
import os
import statistics
import time

import numpy as np

cpu_time = time.process_time

# The kernel's CPU time on the reference host, by definition. 1 ms is about
# its time in the fastest stretches of the 2-vCPU machine the benchmark was
# tuned on, so scaled times read close to that host's milliseconds.
REF_MS = 1.0
NEIGHBOURS = 2          # kernel runs on each side of an operation that scale it
SETUP_TICKS = 30        # kernel runs, after a set-up, that scale it
KERNEL_FILE = "refclock.bin"

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 32))
_X = _rng.standard_normal((32, 8))
_B = _rng.standard_normal((32, 1))
_M = _rng.standard_normal((16, 16))
_BYTES = bytes(range(256)) * 64


def kernel(path):
    """The mix the program's operations are made of, at a fixed size: small
    matrix products, ufuncs and an SVD; building, serialising and parsing
    small Python objects; and rewriting and reading back a 16 KiB file."""
    x, acc = _X, 0.0
    for _ in range(16):
        h = np.tanh(_A @ x + _B)
        x = _X + 0.01 * (_A.T @ ((1.0 - h * h) * x))
        acc += float(np.abs(x).sum())
    acc += float(np.linalg.svd(_M)[1][0])
    items = [{"name": f"item{i}", "vals": [i, i * 2.5, str(i)], "ok": i % 3 == 0}
             for i in range(120)]
    text = json.dumps(items)
    acc += sum(len(d["name"]) for d in json.loads(text)) + len(sorted(text.split(",")))
    with open(path, "wb") as fh:
        fh.write(_BYTES)
    with open(path, "rb") as fh:
        acc += len(fh.read())
    return acc


class RefClock:
    def __init__(self, workdir):
        self.path = os.path.join(workdir, KERNEL_FILE)
        self.kernel_ms = []     # every kernel time of the run, in order

    def tick(self, n=1):
        """Run the kernel `n` times; returns the index of the last time."""
        for _ in range(n):
            t0 = cpu_time()
            kernel(self.path)
            self.kernel_ms.append((cpu_time() - t0) * 1e3)
        return len(self.kernel_ms) - 1

    def factor(self, i):
        """REF_MS over the median time of the NEIGHBOURS kernel runs on each
        side of an operation that started right after tick `i`."""
        lo = max(0, i + 1 - NEIGHBOURS)
        return REF_MS / statistics.median(self.kernel_ms[lo:i + 1 + NEIGHBOURS])

    def scale_setup(self, seconds, first):
        """`seconds` of set-up scaled by the kernel runs from tick `first`
        on, which run before the operations that follow the set-up."""
        return seconds * REF_MS / statistics.median(
            self.kernel_ms[first:first + SETUP_TICKS])
