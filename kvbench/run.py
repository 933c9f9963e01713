"""Run one kvdiff benchmark workload and print its metrics.

    python3 kvbench/run.py --workload sample_guided --seed 1 --seconds 25 --trace 0

Run from the root of a kvdiff checkout; the program is imported from its
`src/`. Set-up and the timed loop run in this one process. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
with `--trace 1` the per-layer ones from a traced run. Problems found by the
output checks go to standard error.

The timed loop repeats whole rounds for `--seconds`, in SETUP_REPEATS equal
parts each preceded by a set-up. Every time is process CPU time scaled by the
reference clock (refclock.py), so that a host that runs everything slower
for a while does not read as a slower program. Throughput and the latency
percentiles cover every operation of the run.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# one thread: the workloads run in this process alone, without a BLAS pool
# (set before numpy is first imported)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from refclock import RefClock, cpu_time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("finetune_kv", "sample_guided", "compose_merge")
SETUP_REPEATS = 3       # setup_s is the median of these
P90_MIN_OPS = 100       # op_p90_ms needs ten samples above p90
TRACE_BLOCK_OPS = 250   # a traced run alternates untraced and traced blocks this long
MAX_SECONDS = 120.0     # the timed loop stops here whatever else holds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Block:
    """Consecutive whole rounds run with tracing either on or off, with each
    operation's time scaled by the reference clock."""

    def __init__(self, index, traced, results, clock):
        self.index = index
        self.traced = traced
        self.attempted = sum(res.attempted for res in results)
        self.failed = sum(res.failed for res in results)
        self.op_ms = np.array([ms * clock.factor(tick) for res in results
                               for ms, tick in zip(res.op_ms, res.op_ticks)])
        self.op_ids = [v for res in results for v in res.op_ids]


def timed_loop(wl, seconds, clock, tracer, instrument, first_round):
    """Untraced: one block of rounds lasting `seconds`. Traced: blocks of at
    least TRACE_BLOCK_OPS operations alternate untraced and traced until
    `seconds` have passed, ending after an equal number of each. Returns the
    blocks and the number of the next round."""
    blocks = []
    rounds = first_round
    start = time.perf_counter()
    limit = min(seconds, MAX_SECONDS)
    while True:
        traced = tracer is not None and len(blocks) % 2 == 1
        if traced:
            tracer.phase = len(blocks)
            instrument(tracer)
        done = []

        def block_full():
            if tracer is not None:
                return sum(res.attempted for res in done) >= TRACE_BLOCK_OPS
            return bool(done) and time.perf_counter() - start >= limit

        try:
            while not block_full():
                done.append(wl.run_round(rounds, tracer if traced else None))
                rounds += 1
        finally:
            if traced:
                tracer.uninstall()
        blocks.append(Block(len(blocks), traced, done, clock))
        if tracer is None or (len(blocks) >= 4 and len(blocks) % 2 == 0 and
                              time.perf_counter() - start >= limit):
            return blocks, rounds


def measure(name, seed, seconds, trace, workdir):
    """Untraced, the run alternates a set-up and an equal share of the timed
    loop SETUP_REPEATS times, so that the set-ups are spread over the run;
    traced, it sets up once."""
    from layers import instrument, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS as CLASSES

    clock = RefClock(workdir)
    tracer = Tracer() if trace else None
    segments = 1 if trace else SETUP_REPEATS
    setup_s, fingerprints, problems, blocks = [], set(), [], []
    rounds = 0
    for segment in range(segments):
        wl = CLASSES[name](workdir, seed, clock)
        if tracer is not None:
            instrument(tracer)
        t0 = cpu_time()
        try:
            wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_cpu, first_tick = cpu_time() - t0, len(clock.kernel_ms)
        fingerprints.add(wl.fingerprint())
        part, rounds = timed_loop(wl, seconds / segments, clock, tracer, instrument,
                                  rounds)
        blocks += part
        setup_s.append(clock.scale_setup(setup_cpu, first_tick))
        if segment == segments - 1:
            # the program's peak, before the checks allocate their own arrays
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wl.final_checks()
        problems += wl.problems
    if len(fingerprints) != 1:
        problems.append("repeated set-ups built different files")

    plain_ms = np.concatenate([b.op_ms for b in blocks if not b.traced])
    if trace:
        traced = [b for b in blocks if b.traced]
        traced_ms = np.concatenate([b.op_ms for b in traced])
        overhead = (traced_ms.mean() / plain_ms.mean() - 1.0) * 100.0
        metrics = layer_metrics(tracer, {b.index for b in traced},
                                {op for b in traced for op in b.op_ids}, overhead)
        tracer.write_jsonl(os.path.join(HERE, "out", f"trace-{name}-seed{seed}.jsonl"))
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "ops_per_s": {"value": len(plain_ms) / (plain_ms.sum() / 1e3),
                                 "unit": "1/s"},
                   "op_p50_ms": {"value": float(np.median(plain_ms)), "unit": "ms"}}
        if len(plain_ms) >= P90_MIN_OPS:
            metrics["op_p90_ms"] = {"value": float(np.percentile(plain_ms, 90)),
                                    "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(b.attempted for b in blocks),
            "failed": sum(b.failed for b in blocks),
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kvdiff", "__init__.py")):
        print(f"kvbench: no kvdiff package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kvdiff
    if os.path.dirname(os.path.abspath(kvdiff.__file__)) != os.path.join(SRC, "kvdiff"):
        print(f"kvbench: kvdiff imported from {kvdiff.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = os.path.join(HERE, "out", f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
