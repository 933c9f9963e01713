"""The reference clock scales an operation by the kernel times around it, and
the traced run takes the kernel's time out of the program's spans.

    python3 -m pytest kvbench/tests
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import refclock  # noqa: E402
from spans import CLOCK_SPAN, SpanIndex, Tracer  # noqa: E402


def test_factor_uses_the_kernel_runs_on_each_side(tmp_path):
    clock = refclock.RefClock(str(tmp_path))
    clock.kernel_ms = [9.0, 1.0, 3.0, 3.0, 3.0, 3.0, 9.0]
    # an operation after tick 3 lies between runs 2, 3 and runs 4, 5
    assert clock.factor(3) == refclock.REF_MS / 3.0
    # the first operation has one run before it and two after
    assert clock.factor(0) == refclock.REF_MS / 3.0


def test_kernel_runs_and_writes_inside_its_directory(tmp_path):
    clock = refclock.RefClock(str(tmp_path))
    assert clock.tick(3) == 2
    assert len(clock.kernel_ms) == 3 and min(clock.kernel_ms) > 0
    assert os.listdir(tmp_path) == [refclock.KERNEL_FILE]


def test_setup_is_scaled_by_the_kernel_runs_after_it(tmp_path):
    clock = refclock.RefClock(str(tmp_path))
    clock.kernel_ms = [9.0] + [2.0] * refclock.SETUP_TICKS + [9.0]
    assert clock.scale_setup(3.0, 1) == 3.0 * refclock.REF_MS / 2.0


def test_kernel_time_is_not_program_time():
    tracer = Tracer()
    tracer.spans = [["finetune.finetune", 0.0, 10.0, -1, None, 1],
                    ["finetune.step", 1.0, 5.0, 0, (0, 0), 1],
                    [CLOCK_SPAN, 2.0, 3.0, 1, (0, 0), 1],
                    ["denoiser.forward", 3.0, 4.0, 1, (0, 0), 1]]
    ix = SpanIndex(tracer, {1}, {(0, 0)})
    step = ix.ids("finetune.step")[0]
    assert ix.duration(step) == 3.0
    assert ix.self_time(step) == 2.0
    assert ix.duration(0) == 9.0 and ix.self_time(0) == 6.0
    assert ix.ids(CLOCK_SPAN) == []
