"""In-memory span recorder that times kvdiff's public functions from outside.

`Tracer.wrap` replaces a module attribute with a wrapper that records one span
per call: name, start, end, parent span, operation id and phase. The program
looks these functions up through their modules at call time, so wrapping the
attribute sees every call the program makes. Nothing under `src/` changes.
"""

import functools
import json
import time

NAME, START, END, PARENT, OP, PHASE = range(6)
CLOCK_SPAN = "refclock.kernel"   # the benchmark's own work, not the program's


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, phase]
        self.notes = {}          # span index -> dict of values taken from the call
        self.stack = []
        self.op = None
        self.phase = "setup"
        self._patches = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, self.phase])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        """Close span `idx` and any span still open inside it."""
        if idx not in self.stack:
            return
        now = time.perf_counter()
        while True:
            top = self.stack.pop()
            self.spans[top][END] = now
            if top == idx:
                return

    def current_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def wrap(self, owner, attr, name, note=None):
        """Trace calls to `owner.attr`; `note(args, kwargs, result)` may return
        values to keep with the span (computed after the span is closed)."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def wrap_steps(self, owner, attr, name_under):
        """Trace the batch stream a training loop pulls once per step: each
        draw closes the previous step span and opens the next. The span name
        is chosen by the span that created the stream (`name_under` maps an
        enclosing span name to a step name)."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            step_name = name_under.get(self.current_name(), "step")

            def steps():
                idx = None
                while True:
                    if idx is not None:
                        self.end(idx)
                    idx = self.begin(step_name)
                    yield next(gen)

            return steps()

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write_jsonl(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s[NAME], "start": s[START] - t0,
                       "end": (s[END] if s[END] is not None else s[START]) - t0,
                       "parent": s[PARENT], "op": s[OP], "phase": s[PHASE]}
                if i in self.notes:
                    row["note"] = self.notes[i]
                fh.write(json.dumps(row) + "\n")


class SpanIndex:
    """Durations and self times of a finished trace, grouped by name.

    Each query uses the spans recorded in the phases `timed` for the
    operations in `ops` or outside any operation; a layer that did no work
    there is reported from the set-up phase instead. The reference clock's
    kernel runs between training steps, inside the span of the training
    loop; its time is taken out of every span around it."""

    def __init__(self, tracer, timed, ops):
        self.tracer = tracer
        spans = tracer.spans
        self.clock_time = [0.0] * len(spans)
        for s in spans:
            if s[NAME] == CLOCK_SPAN and s[END] is not None:
                p = s[PARENT]
                while p >= 0:
                    self.clock_time[p] += s[END] - s[START]
                    p = spans[p][PARENT]
        self.child_time = [0.0] * len(spans)
        self.by_name = {}
        for i, s in enumerate(spans):
            if s[END] is None or s[NAME] == CLOCK_SPAN:
                continue
            if s[PARENT] >= 0:
                self.child_time[s[PARENT]] += self.duration(i)
            phase = "timed" if s[PHASE] in timed else s[PHASE]
            if phase != "timed" or s[OP] is None or s[OP] in ops:
                self.by_name.setdefault((phase, s[NAME]), []).append(i)

    def ids(self, name, fallback=True):
        got = self.by_name.get(("timed", name), [])
        if not got and fallback:
            got = self.by_name.get(("setup", name), [])
        return got

    def duration(self, i):
        s = self.tracer.spans[i]
        return s[END] - s[START] - self.clock_time[i]

    def self_time(self, i):
        return self.duration(i) - self.child_time[i]

    def notes(self, name):
        return [self.tracer.notes[i] for i in self.ids(name) if i in self.tracer.notes]
