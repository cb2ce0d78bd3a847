"""Span tracer that wraps public ``veritas`` functions from outside the package.

``Tracer.install`` replaces each target function in every ``veritas``
module namespace that binds it (``model`` binds ``branch_matrix`` through
``from .data import``, ``harness`` binds ``bundle`` the same way, and the
package itself re-exports most of them), so calls are recorded whichever
name the caller used. ``Tracer.restore`` puts the originals back.

Each call becomes one span ``(name, start, end, parent, request)`` kept in
memory; ``write_spans`` writes them out once the run is over. A span's self
time is its duration minus the durations of its direct children, which is
exact here because the program is single-threaded and spans nest.

Leaf helpers that take a few microseconds (``fnv1a_64``, ``token_vector``,
``sigmoid``) are deliberately not wrapped: the wrapper would cost as much as
the work and the trace would measure the tracer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> public functions wrapped by the tracer
TARGETS = {
    "nn": ("lstm_forward", "dense_forward", "backward", "sgd_step", "softmax_xent", "sampled_xent"),
    "data": ("embed_tweet", "branch_matrix", "decompose_branches", "timeline_prefixes"),
    "model": ("forward_branch", "tree_branch_outputs", "training_instances", "train"),
    "uncertainty": ("bundle", "mc_sample", "aleatoric_score"),
    "harness": ("timeline_report", "write_records_csv", "read_records_csv"),
    "rejection": ("rejection_curve", "train_meta", "supervised_reject", "unsupervised_reject"),
    "calibration": ("calibration_report", "fit_histogram_binning"),
    "metrics": ("evaluate",),
    "synth": ("generate_synthetic",),
}


def _lstm_rows(args, kwargs) -> int:
    inputs = args[3] if len(args) > 3 else kwargs["inputs"]
    return len(inputs)


# span name -> function of the call's arguments giving a work count
COUNTERS = {"nn.lstm_forward": ("nn.lstm_rows", _lstm_rows)}


class Tracer:
    """Records one span per call of every function in ``TARGETS``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name_id, start, end, parent, self.request)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every ``veritas`` namespace; call ``restore`` to undo."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "veritas" or n.startswith("veritas.")]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"veritas.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` over every finished span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out[self.names[span[0]]]
            entry["calls"] += 1
            entry["self_s"] += (span[2] - span[1]) - child_time[i]
        return out

    def write_spans(self, path, phase: str) -> None:
        """Append the spans as CSV rows: phase, span, name, start, end, parent, request.

        Times are ``perf_counter`` seconds; ``parent`` is the enclosing span's
        number in the same phase, or -1.
        """
        with open(path, "a", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name_id, start, end, parent, request = span
                    fh.write(f"{phase},{i},{self.names[name_id]},{start!r},{end!r},{parent},{request}\n")
