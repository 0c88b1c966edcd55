"""In-memory span recorder that wraps qsagms entry points from the outside.

The benchmark never edits the package: it swaps module attributes for
wrappers while a traced round runs and restores them afterwards.  Wrapping
``qsagms.harness.sample_error`` and ``qsagms.harness.decode_batch`` catches
the harness's own calls, because the harness looks those names up in its
module globals at call time.  Spans stay in a list until the run ends.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import qsagms.code
import qsagms.harness

#: Wrappable calls: span name -> (module holding the name, layer).  The
#: layer's self time is the sum of the self times of its spans.
TARGETS = {
    "load_code": (qsagms.code, "code"),
    "tanner_graph": (qsagms.code, "code"),
    "sample_error": (qsagms.harness, "channel"),
    "decode_batch": (qsagms.harness, "decoder"),
    "run_point": (qsagms.harness, "harness"),
    "run_sweep": (qsagms.harness, "harness"),
}


def _decode_counts(args, kwargs, result) -> dict:
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {
        "variant": cfg.variant,
        "frames": int(result.success.shape[0]),
        "iterations": int(result.iterations.sum()),
        "converged": int(result.success.sum()),
    }


def _point_counts(args, kwargs, result) -> dict:
    return {"frames": result.frames}


#: Counts recorded at a boundary, computed from the call and its result.
COUNTS = {"decode_batch": _decode_counts, "run_point": _point_counts}


class Tracer:
    """Records (name, start, end, parent, counts) spans in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, names):
        """Wrap the named targets for the duration of the block."""
        saved = []
        try:
            for name in names:
                module = TARGETS[name][0]
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, self.wrap(name, saved[-1][2]))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


#: No-op calls timed, traced and plain, to measure the cost of one span.
SPAN_COST_CALLS = 20000


def span_cost() -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        mid = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        end = perf_counter()
        best = min(best, ((mid - start) - (end - mid)) / SPAN_COST_CALLS)
    return best
