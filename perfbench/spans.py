"""Spans for the traced run, and the timing shims that record them.

The traced run wraps calls into each layer's public functions from
outside the program: nothing under ``src/`` knows it is being traced,
and the untraced run installs nothing.  A span has a name, a start, an
end and a parent (the span open when it started).  Spans are folded as
they close into per-name call counts, total time and self time, where
self time is the span's duration minus the time its child spans cover.
The self times of a tree therefore add up to its root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Per-name span aggregates plus named counters (one thread)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list] = []  # [name, start, child_time]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> None:
        """Open a span (its parent is the span open now)."""
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        """Close the innermost span and fold it in; returns its duration."""
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter."""
        self.counts[name] += amount

    def stage_sum_s(self) -> float:
        """Sum of every span's self time (= the roots' total duration)."""
        return sum(self.self_s.values())


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, result)
        return result

    return traced


class Shims:
    """Installs timing shims around layer entry points; ``remove()``
    puts every original back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, name: str, after=None) -> None:
        """Wrap a method (or classmethod) of a class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(self.tracer, name, original.__func__, after))
        else:
            wrapped = _wrap(self.tracer, name, original, after)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def function(self, fn, name: str, after=None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it,
        so ``from x import fn`` call sites see the shim too."""
        wrapped = _wrap(self.tracer, name, fn, after)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, fn))

    def remove(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


#: Span name -> the per-layer metric its self time reports.
SPAN_METRICS = {
    "zoo.build_network": "nn.build_network_s",
    "backends.candidates": "backends.candidates_s",
    "engine.profile": "engine.profile_s",
    "engine.executor_run": "engine.executor_run_s",
    "engine.compat": "engine.compat_s",
    "engine.cost_engine_build": "engine.cost_engine_build_s",
    "engine.price": "engine.price_s",
    "core.rollout": "core.rollout_s",
    "core.learn": "core.learn_s",
    "core.replay_draw": "core.replay_draw_s",
    "core.polish": "core.polish_s",
    "core.search": "core.search_self_s",
    "core.multi_seed": "core.multi_seed_s",
    "runtime.lut_resolve": "runtime.lut_resolve_s",
    "runtime.execute_job": "runtime.execute_job_self_s",
}

#: Span name -> the per-layer call-count metric taken at the same boundary.
CALL_METRICS = {
    "backends.candidates": "backends.candidates_calls",
    "engine.executor_run": "engine.executor_run_calls",
    "engine.price": "engine.price_calls",
    "core.rollout": "core.rollout_calls",
}


def install_layer_shims(tracer: Tracer) -> Shims:
    """Shim every layer boundary the per-layer metrics are taken at."""
    from repro import zoo
    from repro.backends.registry import DesignSpace
    from repro.core import kernels, polish
    from repro.core.kernels import reference
    from repro.core.multi_seed import MultiSeedSearch
    from repro.core.search import QSDNNSearch
    from repro.engine import compat
    from repro.engine.executor import Executor
    from repro.engine.lut import IndexedLUT, LatencyTable
    from repro.engine.optimizer import InferenceEngineOptimizer
    from repro.engine.pricing import CostEngine
    from repro.runtime import campaign

    shims = Shims(tracer)
    shims.function(zoo.build_network, "zoo.build_network")
    shims.method(DesignSpace, "candidates", "backends.candidates")
    shims.method(
        InferenceEngineOptimizer,
        "profile",
        "engine.profile",
        after=lambda args, _: tracer.count(
            "engine.profile_passes", args[0].profiling_report.total_passes
        ),
    )
    shims.method(Executor, "run", "engine.executor_run")
    shims.function(compat.profile_compatibility, "engine.compat")
    shims.method(LatencyTable, "indexed", "engine.cost_engine_build")
    shims.method(LatencyTable, "engine", "engine.cost_engine_build")
    shims.method(IndexedLUT, "engine", "engine.cost_engine_build")
    shims.method(CostEngine, "from_model", "engine.cost_engine_build")
    for attr in ("layer_costs", "layer_costs_batch", "price_batch", "price"):
        shims.method(CostEngine, attr, "engine.price")
    # The runner protocol (see repro.core.kernels): only the backend
    # that can run here is shimmed; the numba runner is compiled code.
    if kernels.resolve_backend("auto") == "reference":
        runner = reference.ReferenceRunner
        shims.method(runner, "rollout", "core.rollout")
        shims.method(runner, "learn", "core.learn")
        shims.method(runner, "draw_replay_order", "core.replay_draw")
    shims.function(polish.coordinate_descent, "core.polish")
    shims.method(QSDNNSearch, "run", "core.search")
    shims.method(MultiSeedSearch, "run", "core.multi_seed")
    shims.function(
        campaign.load_or_profile_lut,
        "runtime.lut_resolve",
        after=lambda _, result: tracer.count(
            "runtime.lut_hits" if result[1] else "runtime.lut_misses"
        ),
    )
    shims.function(campaign.execute_job, "runtime.execute_job")
    return shims


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The in-process per-layer metrics a traced pass produced."""
    out = {metric: tracer.self_s.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    for span, metric in CALL_METRICS.items():
        out[metric] = float(tracer.calls.get(span, 0))
    for name in ("engine.profile_passes", "runtime.lut_hits", "runtime.lut_misses"):
        out[name] = float(tracer.counts.get(name, 0))
    return out
