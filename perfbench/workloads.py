"""The three benchmark workloads: ``stream-cold``, ``fleet-hot``, ``offline-plan``.

Every workload is a sequence of identical *passes*.  A pass is

1. **set-up** (timed as ``setup_s``): scenario build, cache construction and
   prewarm, session / tenant registration, repeated ``SETUPS`` times;
2. **timed phase** (``wall_s``): the decision loop (``stream-cold``,
   ``fleet-hot``) or the planner sequence (``offline-plan``);
3. **reference solves**, each timed on its own: ``solve_dp`` (exact grid),
   ``solve_approx`` (gamma = 2), standalone ``run_online`` for A/B/C/LCP and
   ``run_plan`` over the same algorithms plus the offline optimum, on the
   workload's own instances, the solves and ``run_plan`` several times.  In
   ``offline-plan`` these *are* the timed phase;
4. **checks** (untimed, untraced): outputs against their references.

Passes repeat the same inputs, so the i-th tick (or round, or step) of one
pass is the same work as the i-th of the next: latency samples are kept in
that order and :mod:`run` takes each one's floor (minimum) over passes
before it reads percentiles.  Phase timings are recorded the same way, per
*unit* (an instance's solve, one ``run_plan``; a session's stream, the
engine run and every ``run_online`` are split into their ticks, rounds or
steps plus the rest, see :meth:`PassRecord.split`): a phase's time is the
sum over its units of each unit's floor over all its repeats in the run.

All loops are closed: a tenant's next tick waits for its previous decision.
One process, one thread, ``jobs=1``, no ``FeedPump``.  Every input derives
from the workload seed; the program only sees the generated instances.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.exp.engine as exp_engine
import repro.offline.dp as dp
import repro.offline.graph_approx as graph_approx
import repro.online.base as online_base
import repro.scenarios as scenarios
from repro.analysis.competitive import theoretical_bound
from repro.online.base import OnlineAlgorithm
from repro.serve.batch import BatchedServeEngine
from repro.serve.engine import ServeEngine
from repro.serve.feed import ArrayFeed, InstanceFeed
from repro.serve.session import ControllerSession, build_serve_algorithm
from repro.serve.telemetry import TelemetryWriter
from repro.workloads.scale import quantise_trace

__all__ = ["PassRecord", "WORKLOADS"]

#: The online algorithms every workload plans with (serve registry specs).
ONLINE_SPECS = (
    {"kind": "A", "params": {}},
    {"kind": "B", "params": {}},
    {"kind": "C", "params": {"epsilon": 0.5}},
    {"kind": "lcp", "params": {}},
)
#: The same algorithms as sweep-engine specs (LCP's serve default is the
#: heterogeneous per-type extension; the sweep engine needs it spelled out).
SWEEP_SPECS = (
    exp_engine.spec("A"),
    exp_engine.spec("B"),
    exp_engine.spec("C", epsilon=0.5),
    exp_engine.spec("lcp", allow_heterogeneous=True),
)
APPROX_GAMMA = 2.0
COST_TOLERANCE = 1e-9


@dataclass
class PassRecord:
    """Everything one pass measured and checked."""

    #: ``{metric: {unit: [seconds, ...]}}`` for the timed phases (see module doc)
    units: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    pass_s: float = 0.0  # the whole pass minus its checks (the traced interval)
    ticks: int = 0
    tick_ns: List[int] = field(default_factory=list)  # in the same order every pass
    round_ns: List[int] = field(default_factory=list)  # in the same order every pass
    ratios: List[float] = field(default_factory=list)
    #: Costs every pass must reproduce exactly (same seed, same inputs).
    outputs: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    ref: object = None  # the pass's outputs, read by the workload's check

    def time(self, metric: str, unit: str, seconds: float) -> None:
        self.units.setdefault(metric, {}).setdefault(unit, []).append(seconds)

    def split(self, metric: str, unit: str, seconds: float, parts_ns: List[int]) -> None:
        """Record ``unit``'s time as its timed parts plus the rest.

        ``parts_ns`` are disjoint intervals inside the unit, in the same order
        every pass (ticks, rounds, steps).  Each becomes a unit of its own,
        ``unit#i``, and the time they leave uncovered becomes ``unit#rest``:
        the unit's floor is then read part by part, so one slow moment costs
        one part its sample, not the whole unit.
        """
        for i, ns in enumerate(parts_ns):
            self.time(metric, f"{unit}#{i}", ns / 1e9)
        self.time(metric, f"{unit}#rest", seconds - sum(parts_ns) / 1e9)

    def total(self, metric: str) -> float:
        """This pass's time of ``metric`` (its units' medians, summed)."""
        return sum(statistics.median(v) for v in self.units.get(metric, {}).values())

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def check_repeats(self, first: "PassRecord") -> None:
        """A later pass must reproduce the first pass's outputs exactly."""
        for key, value in self.outputs.items():
            self.check(first.outputs.get(key) == value,
                       f"{key}: {value!r} differs from the first pass's {first.outputs.get(key)!r}")


class TimedAlgorithm(OnlineAlgorithm):
    """Times every ``step`` of the wrapped algorithm from outside it."""

    def __init__(self, inner: OnlineAlgorithm, samples: List[int]):
        self.inner = inner
        self.name = inner.name
        self.samples = samples

    def start(self, context) -> None:
        self.inner.start(context)

    def step(self, slot):
        started = time.perf_counter_ns()
        choice = self.inner.step(slot)
        self.samples.append(time.perf_counter_ns() - started)
        return choice

    def finish(self) -> None:
        self.inner.finish()


def _timed(rec: PassRecord, metric: str, unit: str, fn):
    started = time.perf_counter()
    result = fn()
    rec.time(metric, unit, time.perf_counter() - started)
    return result


def repeated_setup(rec: PassRecord, times: int, build):
    """Run ``build`` ``times`` times, each timed as a ``setup_s`` sample, and
    return the last result: a run then holds enough set-ups for a steady
    median."""
    for _ in range(times):
        started = time.perf_counter()
        result = build()
        rec.time("setup_s", "setup", time.perf_counter() - started)
    return result


def _feed_ticks(feed, recorder):
    """Iterate a feed's ticks, spanning each pull as ``feed.next`` when traced."""
    ticks = feed.ticks()
    if recorder is None:
        return ticks
    return _traced_ticks(ticks, recorder)


def _traced_ticks(ticks, recorder):
    while True:
        recorder.begin("feed.next")
        try:
            tick = next(ticks, None)
        finally:
            recorder.end()
        if tick is None:
            return
        yield tick


def _bound(instance, spec) -> Optional[float]:
    kind = spec["kind"]
    if kind in ("A", "B", "C"):
        return theoretical_bound(instance, kind, epsilon=spec["params"].get("epsilon"))
    return None


def small_solves(rec: PassRecord, out: dict, exact, approx) -> None:
    """One exact and one gamma-grid solve per instance, each timed as a
    sample of that instance's unit."""
    for inst in exact:
        out["opt"][id(inst)] = _timed(rec, "exact_solve_s", inst.name, lambda: dp.solve_dp(inst)).cost
        rec.outputs[f"{inst.name}/solve_dp"] = out["opt"][id(inst)]
    for inst in approx:
        out["approx"][id(inst)] = _timed(
            rec, "approx_solve_s", inst.name,
            lambda: graph_approx.solve_approx(inst, gamma=APPROX_GAMMA),
        )
        rec.outputs[f"{inst.name}/solve_approx"] = out["approx"][id(inst)].cost


def sweep(rec: PassRecord, out: dict, online) -> None:
    """``run_plan`` over the ``online`` instances, timed as one sample."""
    plan = exp_engine.SweepPlan(instances=tuple(online), algorithms=SWEEP_SPECS)
    out["sweep"] = _timed(rec, "sweep_s", "run_plan", lambda: exp_engine.run_plan(plan))
    for record in out["sweep"].records:
        rec.outputs[f"{record.instance}/run_plan/{record.algorithm}"] = record.cost


def plan_probe(rec: PassRecord, exact, approx, online, out: Optional[dict] = None, repeats: int = 1) -> dict:
    """The reference solves of a pass, each timed on its own.

    Runs :func:`small_solves` and :func:`sweep` ``repeats`` times, with
    standalone ``run_online`` for every algorithm on the ``online``
    instances after the first round: repeats taken at different moments of
    the pass give every unit's floor more chances to meet a quiet machine.
    Each ``run_online`` is split into its steps and the rest.  Returns (or
    extends ``out`` with) the outputs the checks compare against: the exact
    optimum per instance, the approximate results, one ``run_online`` result
    per (instance, algorithm), the step latencies in run order, and the
    sweep report.
    """
    if out is None:
        out = {"opt": {}, "approx": {}, "online": {}, "steps": [], "sweep": None}
    for repeat in range(repeats):
        small_solves(rec, out, exact, approx)
        if repeat == 0:
            for inst in online:
                for spec in ONLINE_SPECS:
                    first_step = len(out["steps"])
                    algorithm = TimedAlgorithm(build_serve_algorithm(spec), out["steps"])
                    started = time.perf_counter()
                    out["online"][(id(inst), spec["kind"])] = online_base.run_online(inst, algorithm)
                    rec.split("online_batch_s", f"{inst.name}/{spec['kind']}",
                              time.perf_counter() - started, out["steps"][first_step:])
        sweep(rec, out, online)
    return out


def check_sweep(rec: PassRecord, ref: dict, online) -> None:
    """Sweep records: optimum equals ``solve_dp``, online runs within their
    theorem bounds and equal to the standalone ``run_online`` costs."""
    runs = {}
    for record in ref["sweep"].records:
        runs.setdefault(record.instance, []).append(record)
    for inst in online:
        opt = ref["opt"][id(inst)]
        for record, spec in zip(runs[inst.name], ONLINE_SPECS):
            rec.check(
                abs(record.optimal_cost - opt) <= COST_TOLERANCE * max(1.0, opt),
                f"{inst.name}: run_plan optimum {record.optimal_cost!r} != solve_dp {opt!r}",
            )
            rec.check(
                record.within_bound is not False,
                f"{inst.name}/{record.algorithm}: sweep ratio {record.ratio:.4f} > bound {record.bound}",
            )
            batch = ref["online"][(id(inst), spec["kind"])]
            rec.check(
                abs(record.cost - batch.cost) <= COST_TOLERANCE * max(1.0, batch.cost),
                f"{inst.name}/{record.algorithm}: sweep cost {record.cost!r} != run_online {batch.cost!r}",
            )


def check_ratio(rec: PassRecord, label: str, cost: float, opt: float, bound: Optional[float]) -> None:
    """Record cost/OPT; an algorithm with a theorem bound must stay within it."""
    ratio = cost / opt
    rec.ratios.append(ratio)
    if bound is not None:
        rec.check(ratio <= bound + 1e-9, f"{label}: ratio {ratio:.4f} > theorem bound {bound:.4f}")


def check_approx(rec: PassRecord, inst, cost: float, opt: float) -> None:
    """Theorems 16/21: OPT <= gamma-grid cost <= (2 gamma - 1) OPT."""
    limit = (2 * APPROX_GAMMA - 1) * opt
    rec.check(
        opt - 1e-9 * max(1.0, opt) <= cost <= limit + 1e-9,
        f"{inst.name}: gamma-grid cost {cost!r} outside [OPT, (2*gamma-1)*OPT] = [{opt!r}, {limit!r}]",
    )


# --------------------------------------------------------------------------- #
# stream-cold
# --------------------------------------------------------------------------- #


class StreamCold:
    """Cold ticks: sequential sessions with private caches, continuous demand.

    A, B, C(eps=0.5) and LCP on ``diurnal-cpu-gpu`` (time-independent) and
    ``priced-cpu-gpu`` (cost rows revealed per tick).  Every tick pays a
    cold dispatch solve, a DP transition and the commit re-solve.  One
    session runs at a time, so a round is one tick.
    """

    name = "stream-cold"
    T = 128
    FAMILIES = ("diurnal-cpu-gpu", "priced-cpu-gpu")
    SWEEPS = 2  # run_plan samples per pass
    SETUPS = 5  # set-up samples per pass
    min_passes = 3
    decide_metric = "wall_s"

    def setup(self, seed: int):
        instances = [scenarios.build(family, T=self.T, seed=seed) for family in self.FAMILIES]
        sessions = [
            (inst, spec, ControllerSession(spec, inst.server_types, name=f"{inst.name}/{spec['kind']}"))
            for inst in instances
            for spec in ONLINE_SPECS
        ]
        return instances, sessions

    def run_pass(self, seed: int, rec: PassRecord, recorder, work) -> None:
        instances, sessions = repeated_setup(rec, self.SETUPS, lambda: self.setup(seed))

        ref = {"opt": {}, "approx": {}, "online": {}, "steps": [], "sweep": None}
        for inst, _, session in sessions:
            first_tick = len(rec.tick_ns)
            started = time.perf_counter()
            for tick in _feed_ticks(InstanceFeed(inst), recorder):
                t0 = time.perf_counter_ns()
                session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
                rec.tick_ns.append(time.perf_counter_ns() - t0)
            session.finish()
            rec.split("wall_s", session.name, time.perf_counter() - started, rec.tick_ns[first_tick:])
            # outside wall_s: four exact and gamma-grid samples per instance a pass
            small_solves(rec, ref, [inst], [inst])
        rec.ticks = len(rec.tick_ns)
        rec.round_ns = rec.tick_ns

        plan_probe(rec, [], [], instances, ref, repeats=self.SWEEPS)
        for _, _, session in sessions:
            rec.outputs[f"{session.name}/session"] = session.cumulative_cost
        rec.ref = (instances, sessions, ref)

    def check(self, rec: PassRecord, first: Optional[PassRecord]) -> None:
        instances, sessions, ref = rec.ref
        for inst, spec, session in sessions:
            batch = ref["online"][(id(inst), spec["kind"])]
            rec.check(
                np.array_equal(session.schedule.x, batch.schedule.x),
                f"{session.name}: streamed schedule differs from batch run_online",
            )
            rec.check(
                abs(session.cumulative_cost - batch.cost) <= COST_TOLERANCE,
                f"{session.name}: streamed cost {session.cumulative_cost!r} != batch {batch.cost!r}",
            )
            check_ratio(rec, session.name, session.cumulative_cost, ref["opt"][id(inst)], _bound(inst, spec))
        for inst in instances:
            check_approx(rec, inst, ref["approx"][id(inst)].cost, ref["opt"][id(inst)])
        check_sweep(rec, ref, instances)
        if first is not None:
            rec.check_repeats(first)


# --------------------------------------------------------------------------- #
# fleet-hot
# --------------------------------------------------------------------------- #


class StampedFeed(ArrayFeed):
    """A demand feed that stamps ``perf_counter_ns`` at every pull.

    The engine pulls tenant 0 first in every round, so consecutive stamps of
    tenant 0's feed bound one round; the final pull (end of stream) closes
    the last round.  Only the stamping tenant passes ``stamps``.
    """

    def __init__(self, demands, server_types, stamps: Optional[list], recorder):
        super().__init__(demands, server_types=server_types)
        self.stamps = stamps
        self.recorder = recorder

    def play(self, speed=None):
        ticks = _feed_ticks(self, self.recorder)
        stamps = self.stamps
        if stamps is None:
            yield from ticks
            return
        for tick in ticks:
            stamps.append(time.perf_counter_ns())
            yield tick
        stamps.append(time.perf_counter_ns())


class FleetHot:
    """Steady state of a multi-tenant controller over one prewarmed cache.

    ``BatchedServeEngine``; tenants mix table baselines (reactive,
    follow-demand, all-on) with A, B and LCP, on a 12-level quantised
    ``diurnal-cpu-gpu`` trace rotated per tenant.  Sessions are compact
    (``history=False``) except a checked sample, JSONL telemetry is on, and
    every tenant is checkpointed every ``CHECKPOINT_EVERY`` ticks.
    """

    name = "fleet-hot"
    TENANTS = 16
    ROUNDS = 1024
    LEVELS = 12
    CHECKPOINT_EVERY = 32
    KINDS = ("reactive", "A", "follow-demand", "B", "all-on", "lcp")
    REPEATS = 3  # exact, gamma-grid and run_plan samples per pass
    SETUPS = 2  # set-up samples per pass
    min_passes = 3
    decide_metric = "wall_s"

    def sample(self) -> List[int]:
        """Tenants replayed sequentially by the check: one of each kind, plus two."""
        n = self.TENANTS
        return sorted(set(range(len(self.KINDS))) | {n // 2, n - 1})

    def demands(self, base_demand: np.ndarray, k: int) -> np.ndarray:
        return np.roll(base_demand, k * self.ROUNDS // self.TENANTS)

    def setup(self, seed: int, stamps: List[int], recorder):
        sample = set(self.sample())
        base = scenarios.build("diurnal-cpu-gpu", T=self.ROUNDS, seed=seed)
        demand = quantise_trace(base.demand, levels=self.LEVELS)
        instance = base.with_demand(demand, name=f"fleet-hot-T{self.ROUNDS}")
        engine = BatchedServeEngine()
        for k in range(self.TENANTS):
            feed = StampedFeed(
                self.demands(demand, k), instance.server_types, stamps if k == 0 else None, recorder
            )
            engine.add_tenant(
                f"tenant-{k}", self.KINDS[k % len(self.KINDS)], feed, history=k in sample
            )
        engine.prewarm(sorted({float(v) for v in demand}))
        return instance, engine

    def run_pass(self, seed: int, rec: PassRecord, recorder, work) -> None:
        if os.path.exists(work):
            shutil.rmtree(work)
        os.makedirs(work)
        stamps: List[int] = []
        instance, engine = repeated_setup(rec, self.SETUPS, lambda: self.setup(seed, stamps, recorder))
        telemetry_path = os.path.join(work, "telemetry.jsonl")
        writer = TelemetryWriter(telemetry_path)

        started = time.perf_counter()
        try:
            engine.run(
                telemetry=writer,
                checkpoint_dir=os.path.join(work, "checkpoints"),
                checkpoint_every=self.CHECKPOINT_EVERY,
            )
        finally:
            writer.close()
        elapsed = time.perf_counter() - started
        rec.ticks = sum(session.ticks for session in engine.sessions)
        # compact sessions keep their most recent ticks' latencies (a fixed
        # window), so every pass yields the same (tenant, tick) samples
        for session in engine.sessions:
            rec.tick_ns.extend(session.latencies_ns.tolist())
        rec.round_ns = np.diff(np.asarray(stamps, dtype=np.int64)).tolist()
        rec.split("wall_s", "engine.run", elapsed, rec.round_ns)

        counters = engine.batch_counters()
        rec.counts.update(
            {
                "batch.batched_ticks": counters["batched_ticks"],
                "batch.fallback_ticks": counters["fallback_ticks"],
                "batch.hit_rate": counters["batch_hit_rate"],
                "batch.avg_cohort_size": counters["avg_cohort_size"],
                "batch.table_installs": counters["table_installs"],
                "telemetry.bytes": os.path.getsize(telemetry_path),
            }
        )
        for session in engine.sessions:
            rec.outputs[f"{session.name}/session"] = session.cumulative_cost

        ref = plan_probe(rec, [instance], [instance], [instance], repeats=self.REPEATS)
        rec.ref = (instance, engine, ref)

    def check(self, rec: PassRecord, first: Optional[PassRecord]) -> None:
        instance, engine, ref = rec.ref
        rec.check(
            rec.ticks == self.TENANTS * self.ROUNDS and len(rec.round_ns) == self.ROUNDS,
            f"fleet-hot: {rec.ticks} ticks in {len(rec.round_ns)} rounds, expected "
            f"{self.TENANTS} x {self.ROUNDS}",
        )
        if first is not None:
            # same inputs as the fully checked first pass: outputs must repeat
            rec.check_repeats(first)
            rec.ratios = first.ratios
            return
        reference = ServeEngine()
        for k in self.sample():
            reference.add_tenant(
                f"tenant-{k}",
                self.KINDS[k % len(self.KINDS)],
                ArrayFeed(self.demands(instance.demand, k), server_types=instance.server_types),
            )
        reference.run()
        for k in self.sample():
            name = f"tenant-{k}"
            seq, bat = reference.session(name), engine.session(name)
            rec.check(
                np.array_equal(seq.schedule.x, bat.schedule.x),
                f"{name}: batched schedule differs from the sequential engine",
            )
            rec.check(
                abs(seq.cumulative_cost - bat.cumulative_cost) <= COST_TOLERANCE
                and seq.sla_violations == bat.sla_violations,
                f"{name}: batched cost/SLA differ from the sequential engine",
            )
            kind = self.KINDS[k % len(self.KINDS)]
            opt = dp.solve_dp(instance.with_demand(self.demands(instance.demand, k))).cost
            check_ratio(rec, name, bat.cumulative_cost, opt, _bound(instance, {"kind": kind, "params": {}}))
        check_approx(rec, instance, ref["approx"][id(instance)].cost, ref["opt"][id(instance)])
        check_sweep(rec, ref, [instance])


# --------------------------------------------------------------------------- #
# offline-plan
# --------------------------------------------------------------------------- #


class OfflinePlan:
    """The planner path: large grids, where kernels and DP transitions dominate.

    Exact ``solve_dp`` on ``long-horizon`` (d=2, 2501 states), ``solve_approx``
    (gamma=2) on ``big-fleet`` (d=4, m_j up to 10^4, 20 592 states), and
    ``run_online`` / ``run_plan`` for A/B/C/LCP on the ``stream-cold``
    diurnal family.  The decisions are the ``run_online`` steps; one
    algorithm runs at a time, so a round is one step.
    """

    name = "offline-plan"
    LONG_T = 2500
    BIG_T = 250
    ONLINE_T = 256
    REPEATS = 2  # exact, gamma-grid and run_plan samples per pass
    SETUPS = 5  # set-up samples per pass
    min_passes = 3
    decide_metric = "online_batch_s"

    def setup(self, seed: int):
        return (
            scenarios.build("long-horizon", T=self.LONG_T, seed=seed),
            scenarios.build("big-fleet", T=self.BIG_T, seed=seed),
            scenarios.build("diurnal-cpu-gpu", T=self.ONLINE_T, seed=seed),
        )

    def run_pass(self, seed: int, rec: PassRecord, recorder, work) -> None:
        long_horizon, big_fleet, diurnal = repeated_setup(rec, self.SETUPS, lambda: self.setup(seed))

        ref = plan_probe(rec, [long_horizon], [big_fleet], [diurnal], repeats=self.REPEATS)
        # the timed phase is the planner sequence: every reference solve's unit
        rec.units["wall_s"] = {
            f"{metric}/{unit}": samples
            for metric in ("exact_solve_s", "approx_solve_s", "online_batch_s", "sweep_s")
            for unit, samples in rec.units[metric].items()
        }
        rec.tick_ns = ref["steps"]
        rec.round_ns = rec.tick_ns
        rec.ticks = len(rec.tick_ns)
        for (_, kind), result in ref["online"].items():
            rec.outputs[f"{diurnal.name}/run_online/{kind}"] = result.cost
        rec.ref = (long_horizon, big_fleet, diurnal, ref)

    def check(self, rec: PassRecord, first: Optional[PassRecord]) -> None:
        long_horizon, big_fleet, diurnal, ref = rec.ref
        big = ref["approx"][id(big_fleet)]
        rec.check(
            math.isfinite(big.cost) and big.schedule.x.shape == (big_fleet.T, big_fleet.d),
            f"{big_fleet.name}: gamma-grid solve returned no feasible schedule",
        )
        if first is not None:
            rec.check_repeats(first)
            rec.ratios = first.ratios
            return
        # the gamma-grid bound needs OPT, which big-fleet's full grid puts out
        # of reach: check the bound on long-horizon, whose OPT is solved
        opt = ref["opt"][id(long_horizon)]
        approx = graph_approx.solve_approx(long_horizon, gamma=APPROX_GAMMA).cost
        check_approx(rec, long_horizon, approx, opt)
        ref["opt"][id(diurnal)] = dp.solve_dp(diurnal).cost
        for spec in ONLINE_SPECS:
            batch = ref["online"][(id(diurnal), spec["kind"])]
            check_ratio(rec, f"{diurnal.name}/{spec['kind']}", batch.cost, ref["opt"][id(diurnal)],
                        _bound(diurnal, spec))
        check_sweep(rec, ref, [diurnal])


WORKLOADS = {w.name: w for w in (StreamCold(), FleetHot(), OfflinePlan())}
