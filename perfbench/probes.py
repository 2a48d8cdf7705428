"""Traced-run instrumentation: spans and counters around the program's layers.

:class:`Probes` wraps the public entry points of each layer for the duration
of one traced pass and restores the originals afterwards, so untraced passes
run the program untouched.  Every wrapper opens a span on the pass's
:class:`~ledger.SpanRecorder`; a few also diff a public counter across the
call (dispatch work from ``DispatchSolver.stats``, memo hits from
``ServeCache``) or count the work a call was handed (``transitions.cells``).

Module-level functions are wrapped in the namespace that calls them, since
``from x import f`` binds a second name: ``solve_dp`` is looked up both in
``repro.offline.dp`` (benchmark calls) and ``repro.offline.graph_approx``
(``solve_approx``), ``run_online`` in ``repro.online.base`` and
``repro.exp.shared`` (the sweep engine), and so on.
"""

from __future__ import annotations

import functools
import os

from ledger import SpanRecorder

import repro.exp.engine as exp_engine
import repro.exp.shared as exp_shared
import repro.offline.dp as dp
import repro.offline.graph_approx as graph_approx
import repro.online.base as online_base
import repro.online.tracker as tracker
import repro.scenarios as scenarios
import repro.serve.batch as batch
from repro.dispatch.allocation import DispatchSolver
from repro.offline.transitions import TransitionPlan
from repro.online.algorithm_a import AlgorithmA
from repro.online.algorithm_b import AlgorithmB
from repro.online.algorithm_c import AlgorithmC
from repro.online.baselines import AllOn, FollowDemand, Reactive
from repro.online.lcp import LazyCapacityProvisioning
from repro.serve.session import ControllerSession, ServeCache
from repro.serve.telemetry import TelemetryWriter

__all__ = ["COUNTERS", "Probes"]

#: Counters the wrappers accumulate (all start at 0 every traced pass).
COUNTERS = (
    "dispatch.slot_queries",
    "dispatch.unique_solves",
    "dispatch.bisection_iterations",
    "dispatch.cold_solves",
    "cache.tensor_hits",
    "cache.tensor_misses",
    "cache.table_gathers",
    "transitions.cells",
    "checkpoint.bytes",
)

_STEP_NAMES = (
    (AlgorithmA, "online.step.A"),
    (AlgorithmB, "online.step.B"),
    (AlgorithmC, "online.step.C"),
    (LazyCapacityProvisioning, "online.step.LCP"),
    (Reactive, "online.step.baseline"),
    (FollowDemand, "online.step.baseline"),
    (AllOn, "online.step.baseline"),
)


class Probes:
    """Spans + counters for one traced pass (a context manager).

    ``with Probes() as probes:`` installs every wrapper and starts the
    recorder; leaving the block stops the recorder and restores the program.
    """

    def __init__(self):
        self.recorder = SpanRecorder()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._saved = []

    # ---------------------------------------------------------------- install
    def __enter__(self) -> "Probes":
        rec = self.recorder
        sites = [
            (scenarios, "build", self._span("scenarios.build")),
            (DispatchSolver, "solve_block", self._solve_block),
            (ServeCache, "prewarm", self._span("cache.prewarm")),
            (ServeCache, "grid_tensor", self._grid_tensor),
            (ServeCache, "solve_config", self._solve_config),
            (ControllerSession, "observe", self._span("session.observe")),
            (ControllerSession, "prepare_tick", self._span("session.prepare")),
            (ControllerSession, "decide_tick", self._span("session.decide")),
            (ControllerSession, "commit_tick", self._span("session.commit")),
            (ControllerSession, "checkpoint", self._span("checkpoint.build")),
            (batch, "save_checkpoint", self._save_checkpoint),
            (batch.BatchedServeEngine, "run", self._span("batch.run")),
            (batch.BatchedServeEngine, "_run_round", self._span("batch.round")),
            (TelemetryWriter, "write", self._span("telemetry.write")),
            (TransitionPlan, "apply", self._plan_apply),
            (dp, "transition", self._span("transitions.transition")),
            (tracker, "transition", self._span("transitions.transition")),
            (dp.WindowedOperatingCosts, "tensor", self._span("dp.cost_tensors")),
            (dp, "solve_dp", self._span("dp.forward")),
            (graph_approx, "solve_dp", self._span("dp.forward")),
            (dp, "backtrack_schedule", self._span("dp.backtrack")),
            (dp, "_backtrack_checkpointed", self._span("dp.backtrack")),
            (tracker, "backtrack_schedule", self._span("dp.backtrack")),
            (tracker.DPPrefixTracker, "observe", self._span("tracker.observe")),
            (online_base, "run_online", self._span("online.run_online")),
            (exp_shared, "run_online", self._span("online.run_online")),
            (exp_engine, "run_plan", self._span("exp.run_plan")),
            (exp_engine, "run_instance", self._span("exp.run_instance")),
        ]
        sites += [(cls, "step", self._step(name)) for cls, name in _STEP_NAMES]
        for owner, attr, make in sites:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        rec.start()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.recorder.stop()
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved = []

    # --------------------------------------------------------------- wrappers
    def _span(self, name):
        rec = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.end()

            return wrapper

        return make

    def _step(self, name):
        """``step`` spans; an algorithm stepping another (C runs B on
        sub-slots) keeps the outer algorithm's name, so ``online.step.C``
        holds all of C's decision time."""
        rec = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outer = rec.current
                rec.begin(outer if outer is not None and outer.startswith("online.step.") else name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.end()

            return wrapper

        return make

    def _solve_block(self, fn):
        rec, counts = self.recorder, self.counts

        @functools.wraps(fn)
        def wrapper(solver, *args, **kwargs):
            stats = solver.stats
            before = (stats.slot_queries, stats.unique_solves,
                      stats.bisection_iterations, stats.cold_solves)
            rec.begin("dispatch.solve_block")
            try:
                return fn(solver, *args, **kwargs)
            finally:
                rec.end()
                counts["dispatch.slot_queries"] += stats.slot_queries - before[0]
                counts["dispatch.unique_solves"] += stats.unique_solves - before[1]
                counts["dispatch.bisection_iterations"] += stats.bisection_iterations - before[2]
                counts["dispatch.cold_solves"] += stats.cold_solves - before[3]

        return wrapper

    def _grid_tensor(self, fn):
        rec, counts = self.recorder, self.counts

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            hits, misses, gathers = cache.tensor_hits, cache.tensor_misses, cache.table_gathers
            rec.begin("cache.grid_tensor")
            try:
                return fn(cache, *args, **kwargs)
            finally:
                rec.end()
                counts["cache.tensor_hits"] += cache.tensor_hits - hits
                counts["cache.tensor_misses"] += cache.tensor_misses - misses
                counts["cache.table_gathers"] += cache.table_gathers - gathers

        return wrapper

    def _solve_config(self, fn):
        rec, counts = self.recorder, self.counts

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            gathers = cache.table_gathers
            rec.begin("cache.solve_config")
            try:
                return fn(cache, *args, **kwargs)
            finally:
                rec.end()
                counts["cache.table_gathers"] += cache.table_gathers - gathers

        return wrapper

    def _plan_apply(self, fn):
        rec, counts = self.recorder, self.counts

        @functools.wraps(fn)
        def wrapper(plan, values_tensor):
            # kernel work of one apply: every state relaxed along each of d axes
            counts["transitions.cells"] += values_tensor.size * values_tensor.ndim
            rec.begin("transitions.apply")
            try:
                return fn(plan, values_tensor)
            finally:
                rec.end()

        return wrapper

    def _save_checkpoint(self, fn):
        rec, counts = self.recorder, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.begin("checkpoint.save")
            try:
                path = fn(*args, **kwargs)
            finally:
                rec.end()
            counts["checkpoint.bytes"] += os.path.getsize(path)
            return path

        return wrapper
