"""A fleet of simulated SoC devices behind one shared plan cache.

The fleet is the serving layer's device model: N SoC instances (possibly
of mixed SoC types, e.g. Exynos 7420 flagships next to 7880 mid-rangers)
that each execute one request at a time *per resource set*.  Every
device keeps one clock per processor, so a μLayer co-execution occupies
the whole SoC while a single-processor request occupies only its own
processor -- which is exactly the latency-versus-throughput trade-off
between the paper's μLayer and network-to-processor mechanisms
(Sections 2.2 and 7), now exposed to a scheduler.

Per-request service times are not modelled analytically: each dispatch
runs the real :class:`~repro.runtime.executor.Executor` on the cached
plan and advances the device clock by the executor-reported
:class:`~repro.runtime.metrics.InferenceResult` latency.  Plans are
built once per ``(model, soc, mechanism, policy)`` through the shared
:class:`~repro.runtime.plan_cache.PlanCache`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..models import build_model
from ..nn import Graph
from ..runtime import (Executor, InferenceResult, LayerAssignment,
                       Partitioner, PartitionerConfig, PROCESSOR_FRIENDLY,
                       QuantizationPolicy, single_processor_plan,
                       uniform_policy)
from ..runtime.plan import ExecutionPlan
from ..runtime.plan_cache import PlanCache, PlanKey
from ..soc import SoCSpec, soc_by_name
from ..tensor import DType
from .workload import Request

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..quant.calibrate import CalibrationTable

#: Compute dtype of each single-processor mechanism -- the fastest
#: per-processor data type per the paper (Section 7.2, Section 8.3).
SINGLE_PROCESSOR_DTYPES: Dict[str, DType] = {
    "cpu": DType.QUINT8,
    "gpu": DType.F16,
    "npu": DType.QUINT8,
}

#: Small slack for floating-point clock comparisons.
_EPS = 1e-12

#: Per worker process: shared machinery of one (SoC, policy), so a
#: warm-up worker fits each SoC's latency predictor once instead of
#: once per plan.
_WARM_CONTEXTS: Dict[Tuple[str, QuantizationPolicy], "_SoCContext"] = {}


def _warm_plan_unit(item: Tuple[str, QuantizationPolicy, str, str, int]
                    ) -> Tuple["PlanKey", ExecutionPlan]:
    """Build one (model, SoC, mechanism, batch) plan; module-level so
    :func:`~repro.harness.parallel.parallel_map` can run warm-up in
    worker processes."""
    soc_name, policy, model, mechanism, batch = item
    context = _WARM_CONTEXTS.get((soc_name, policy))
    if context is None:
        context = _SoCContext(soc_by_name(soc_name), policy)
        _WARM_CONTEXTS[(soc_name, policy)] = context
    graph = build_model(model, with_weights=False)
    key = PlanKey(model=model, soc=soc_name, mechanism=mechanism,
                  policy=context.policy_name(mechanism), batch=batch)
    return key, context.build_plan(graph, mechanism, batch=batch)


def plan_resources(plan: ExecutionPlan, graph: Graph) -> Tuple[str, ...]:
    """The processors a plan actually touches, sorted.

    A μLayer plan that co-executes owns CPU and GPU (and NPU where
    split three ways); a single-processor plan owns one processor --
    except NPU plans, whose unsupported layers fall back to the host
    CPU, so they occupy both.  Deriving occupancy from the plan keeps
    the device model honest for scheduling and utilization.
    """
    used: set = set()
    for name in graph.compute_layers():
        placement = plan.placement_of(name)
        if isinstance(placement, LayerAssignment):
            used.update(placement.shares())
        else:
            used.add(placement)
    return tuple(sorted(used))


class _SoCContext:
    """Machinery shared by all fleet devices of one SoC type.

    Holds the partitioner (and therefore the fitted latency predictor)
    for the serving policy, one estimator partitioner per
    single-processor mechanism (each under its own uniform policy), and
    the executor.  Building this once per SoC type amortizes predictor
    calibration across the devices and requests of a simulation.
    """

    def __init__(self, soc: SoCSpec, policy: QuantizationPolicy) -> None:
        self.soc = soc
        self.policy = policy
        self.partitioner = Partitioner(soc, policy=policy)
        self.executor = Executor(soc)
        config = PartitionerConfig(enable_channel_distribution=False,
                                   enable_branch_distribution=False)
        self._estimators: Dict[str, Partitioner] = {
            "mulayer": self.partitioner}
        for resource, dtype in SINGLE_PROCESSOR_DTYPES.items():
            if resource == "npu" and not soc.has_npu:
                continue
            self._estimators[resource] = Partitioner(
                soc, policy=uniform_policy(dtype), config=config)

    def mechanisms(self) -> Tuple[str, ...]:
        """Mechanisms this SoC supports, μLayer first."""
        names = ["mulayer", "cpu", "gpu"]
        if self.soc.has_npu:
            names.append("npu")
        return tuple(names)

    def policy_name(self, mechanism: str) -> str:
        """Name of the quantization policy a mechanism runs under."""
        if mechanism == "mulayer":
            return self.policy.name
        return uniform_policy(SINGLE_PROCESSOR_DTYPES[mechanism]).name

    def build_plan(self, graph: Graph, mechanism: str,
                   batch: int = 1) -> ExecutionPlan:
        """Partition ``graph`` for ``mechanism`` (uncached)."""
        if mechanism == "mulayer":
            return self.partitioner.plan(graph, batch=batch)
        return single_processor_plan(
            graph, mechanism,
            uniform_policy(SINGLE_PROCESSOR_DTYPES[mechanism]),
            batch=batch)

    def estimate_service_s(self, graph: Graph, mechanism: str,
                           plan: ExecutionPlan,
                           batch: int = 1) -> float:
        """Predictor-based service-time estimate of one request.

        Sums the per-layer latency estimates of the plan's placements
        (the same estimates the partitioner optimizes), ignoring
        cross-layer pipelining -- a slightly conservative figure, which
        is the right bias for admission control.  With ``batch > 1``
        the estimate is for the whole batch executing as one inference.
        """
        estimator = self._estimators[mechanism]
        total = 0.0
        for name in graph.compute_layers():
            placement = plan.placement_of(name)
            if isinstance(placement, LayerAssignment):
                shares = placement.shares()
            else:
                shares = {placement: 1.0}
            total += estimator.estimate_shares_latency(graph, name,
                                                       shares,
                                                       batch=batch)
        return total


@dataclasses.dataclass
class Device:
    """One simulated SoC instance with per-processor clocks.

    Attributes:
        device_id: stable identifier (``dev0:exynos7420`` style).
        soc: the SoC specification.
        free_s: per-resource time at which the processor next idles.
        busy_s: per-resource cumulative occupied time.
        completed: number of requests served.
    """

    device_id: str
    soc: SoCSpec
    free_s: Dict[str, float]
    busy_s: Dict[str, float]
    completed: int = 0

    @staticmethod
    def make(device_id: str, soc: SoCSpec) -> "Device":
        """A fresh idle device."""
        return Device(device_id=device_id, soc=soc,
                      free_s={r: 0.0 for r in soc.resources()},
                      busy_s={r: 0.0 for r in soc.resources()})

    def earliest_start_s(self, resources: Sequence[str],
                         now: float) -> float:
        """Earliest time a resource set is entirely free."""
        return max([now] + [self.free_s[r] for r in resources])

    def idle_now(self, resources: Sequence[str], now: float) -> bool:
        """True when the resource set could be claimed at ``now``."""
        return self.earliest_start_s(resources, now) <= now + _EPS

    def backlog_s(self, now: float) -> float:
        """Remaining busy time of the most-loaded resource."""
        return max(0.0, max(self.free_s.values()) - now)

    def total_busy_s(self) -> float:
        """Cumulative occupied time summed over resources."""
        return sum(self.busy_s.values())

    def occupy(self, resources: Sequence[str], start_s: float,
               end_s: float, count: int = 1) -> None:
        """Reserve a resource set for [start, end) serving ``count``
        requests (one batched dispatch completes the whole batch)."""
        for resource in resources:
            self.free_s[resource] = end_s
            self.busy_s[resource] += end_s - start_s
        self.completed += count

    def utilization(self, horizon_s: float) -> Dict[str, float]:
        """Per-resource busy fraction over a horizon."""
        if horizon_s <= 0.0:
            return {resource: 0.0 for resource in self.busy_s}
        return {resource: busy / horizon_s
                for resource, busy in self.busy_s.items()}


@dataclasses.dataclass(frozen=True)
class Completion:
    """Record of one served request.

    Attributes:
        request: the request served.
        device_id / mechanism: where and how it ran.
        start_s / finish_s: dispatch and completion times.
        result: the executor's full inference result (shared by all
            requests of one batched dispatch).
        batch_size: how many requests executed together; the batch's
            whole makespan is attributed to every member, so a
            request's latency never improves just because it was
            batched -- only its queue wait and the fleet's throughput
            do.
    """

    request: Request
    device_id: str
    mechanism: str
    start_s: float
    finish_s: float
    result: InferenceResult
    batch_size: int = 1

    @property
    def service_s(self) -> float:
        """Pure execution time on the device."""
        return self.finish_s - self.start_s

    @property
    def queue_wait_s(self) -> float:
        """Arrival-to-dispatch wait (batching's latency cost shows up
        here: a request may wait for the batch window to fill)."""
        return self.start_s - self.request.arrival_s

    @property
    def sojourn_s(self) -> float:
        """Arrival-to-completion latency (queueing included)."""
        return self.finish_s - self.request.arrival_s

    @property
    def met_slo(self) -> bool:
        """True when the request finished within its SLO."""
        return self.finish_s <= self.request.deadline_s + _EPS

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly record (without per-layer traces)."""
        return {
            "request_id": self.request.request_id,
            "model": self.request.model,
            "arrival_s": self.request.arrival_s,
            "slo_s": self.request.slo_s,
            "device": self.device_id,
            "mechanism": self.mechanism,
            "batch_size": self.batch_size,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "service_s": self.service_s,
            "queue_wait_s": self.queue_wait_s,
            "sojourn_s": self.sojourn_s,
            "met_slo": self.met_slo,
            "result": self.result.to_dict(include_traces=False),
        }


class Fleet:
    """N devices, shared per-SoC machinery, one plan cache.

    The executor is deterministic, so the
    :class:`~repro.runtime.metrics.InferenceResult` of one
    ``(model, SoC type, mechanism, batch)`` configuration is identical
    on every dispatch; with ``memoize_results`` (the default) the fleet
    runs each configuration once and replays the result, which is what
    makes 10^5-request cluster sweeps affordable without changing a
    single reported number.

    Args:
        socs: the SoC of each device, in device order.
        policy: quantization policy for μLayer co-execution.
        plan_cache: externally shared cache; a fresh one by default.
        memoize_results: replay the deterministic executor result per
            configuration instead of re-executing it per request.
        compiled: request compiled (fused, arena-planned) execution
            for functional runs.  Fleet dispatches are timing-only
            (no input data), where compiled and functional execution
            report identical latencies, so this is a passthrough for
            callers that feed the fleet's executors data directly.
    """

    def __init__(self, socs: Sequence[SoCSpec],
                 policy: QuantizationPolicy = PROCESSOR_FRIENDLY,
                 plan_cache: Optional[PlanCache] = None,
                 memoize_results: bool = True,
                 compiled: bool = False) -> None:
        if not socs:
            raise ValueError("a fleet needs at least one device")
        self.policy = policy
        self.plan_cache = plan_cache if plan_cache is not None else (
            PlanCache())
        self.memoize_results = memoize_results
        self.compiled = compiled
        self._contexts: Dict[str, _SoCContext] = {}
        self.devices: List[Device] = []
        for index, soc in enumerate(socs):
            if soc.name not in self._contexts:
                self._contexts[soc.name] = _SoCContext(soc, policy)
            self.devices.append(
                Device.make(f"dev{index}:{soc.name}", soc))
        self._graphs: Dict[str, Graph] = {}
        self._estimates: Dict[Tuple[str, str, str, int], float] = {}
        self._resources: Dict[Tuple[str, str, str, int],
                              Tuple[str, ...]] = {}
        self._isolated: Dict[Tuple[str, str], float] = {}
        self._results: Dict[Tuple[str, str, str, int],
                            InferenceResult] = {}

    @classmethod
    def build(cls, soc_names: Sequence[str], num_devices: int,
              policy: QuantizationPolicy = PROCESSOR_FRIENDLY,
              plan_cache: Optional[PlanCache] = None,
              memoize_results: bool = True,
              compiled: bool = False) -> "Fleet":
        """A fleet of ``num_devices`` cycling through ``soc_names``."""
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if not soc_names:
            raise ValueError("soc_names must not be empty")
        cycle = itertools.cycle([soc_by_name(name) for name in soc_names])
        socs = [next(cycle) for _ in range(num_devices)]
        return cls(socs, policy=policy, plan_cache=plan_cache,
                   memoize_results=memoize_results, compiled=compiled)

    # -- lookups -------------------------------------------------------------

    def device(self, device_id: str) -> Device:
        """The device with a given id.

        Raises:
            KeyError: for unknown ids.
        """
        for device in self.devices:
            if device.device_id == device_id:
                return device
        raise KeyError(f"no device {device_id!r} in the fleet")

    def context(self, soc_name: str) -> _SoCContext:
        """The shared per-SoC machinery."""
        return self._contexts[soc_name]

    def graph(self, model: str) -> Graph:
        """The (weight-less) graph of a model, built once."""
        cached = self._graphs.get(model)
        if cached is None:
            cached = build_model(model, with_weights=False)
            self._graphs[model] = cached
        return cached

    def mechanisms(self, device: Device) -> Tuple[str, ...]:
        """Mechanisms available on one device."""
        return self._contexts[device.soc.name].mechanisms()

    # -- planning and execution ----------------------------------------------

    def plan_for(self, model: str, device: Device, mechanism: str,
                 batch: int = 1) -> ExecutionPlan:
        """The (cached) plan of a configuration.

        Plans are cached per batch size; a batch-B dispatch always
        looks up (and builds) the batch-B entry, never reuses another
        batch's splits.
        """
        context = self._contexts[device.soc.name]
        key = PlanKey(model=model, soc=device.soc.name,
                      mechanism=mechanism,
                      policy=context.policy_name(mechanism),
                      batch=batch)
        graph = self.graph(model)
        return self.plan_cache.get_or_build(
            key, lambda: context.build_plan(graph, mechanism,
                                            batch=batch))

    def warm_plans(self, models: Sequence[str],
                   mechanisms: Optional[Sequence[str]] = None,
                   jobs: Optional[int] = None,
                   batches: Sequence[int] = (1,),
                   programs: bool = False) -> int:
        """Pre-build plans for every (model, SoC type, mechanism,
        batch).

        Serving then never partitions on the request path.  Already
        cached configurations are skipped.

        Args:
            models: models to warm.
            mechanisms: mechanisms to warm (default: everything each
                SoC supports).
            jobs: fan plan building across processes (None/1 = serial,
                in-process; <=0 = one per CPU).
            batches: batch sizes to warm; a batching scheduler with
                ``max_batch=B`` dispatches at sizes 1..B, so warm
                ``range(1, B + 1)``.
            programs: also compile one :class:`CompiledProgram` per
                unique (model, SoC type, mechanism, batch), cached
                next to its plan.  The work is keyed by SoC *type*,
                not device, so a hundred replicas of one SoC warm
                each configuration exactly once.

        Returns:
            How many plans (plus, with ``programs``, programs) were
            built and inserted by this call.
        """
        from ..harness.parallel import parallel_map

        work: List[Tuple[str, QuantizationPolicy, str, str, int]] = []
        for soc_name in sorted(self._contexts):
            context = self._contexts[soc_name]
            supported = context.mechanisms()
            chosen = (supported if mechanisms is None
                      else tuple(m for m in mechanisms
                                 if m in supported))
            for model in models:
                for mechanism in chosen:
                    for batch in batches:
                        key = PlanKey(
                            model=model, soc=soc_name,
                            mechanism=mechanism,
                            policy=context.policy_name(mechanism),
                            batch=batch)
                        if key not in self.plan_cache:
                            work.append((soc_name, self.policy, model,
                                         mechanism, batch))
        if jobs is None or jobs == 1:
            # Serial warm-up reuses the fleet's own contexts (and their
            # already fitted predictors).
            for soc_name, _, model, mechanism, batch in work:
                context = self._contexts[soc_name]
                key = PlanKey(model=model, soc=soc_name,
                              mechanism=mechanism,
                              policy=context.policy_name(mechanism),
                              batch=batch)
                self.plan_cache.put(
                    key, context.build_plan(self.graph(model), mechanism,
                                            batch=batch))
        else:
            for key, plan in parallel_map(_warm_plan_unit, work,
                                          jobs=jobs):
                self.plan_cache.put(key, plan)
        built = len(work)
        if programs:
            built += self._warm_programs(models, mechanisms, batches)
        return built

    def _warm_programs(self, models: Sequence[str],
                       mechanisms: Optional[Sequence[str]],
                       batches: Sequence[int]) -> int:
        """Compile one program per unique configuration (see
        :meth:`warm_plans`); returns how many were compiled."""
        # Imported lazily: repro.compile imports the analysis package,
        # which imports the runtime this module builds on.
        from ..compile import compile_program
        from ..nn.reference import calibrate_graph
        import numpy as np

        weighted: Dict[str, Graph] = {}
        calibrations: Dict[Tuple[str, str], "CalibrationTable"] = {}
        compiled = 0
        for soc_name in sorted(self._contexts):
            context = self._contexts[soc_name]
            supported = context.mechanisms()
            chosen = (supported if mechanisms is None
                      else tuple(m for m in mechanisms
                                 if m in supported))
            for model in models:
                for mechanism in chosen:
                    for batch in batches:
                        key = PlanKey(
                            model=model, soc=soc_name,
                            mechanism=mechanism,
                            policy=context.policy_name(mechanism),
                            batch=batch)
                        if self.plan_cache.get_program(
                                key, batch) is not None:
                            continue
                        graph = weighted.get(model)
                        if graph is None:
                            graph = build_model(model,
                                                with_weights=True)
                            weighted[model] = graph
                        plan = self.plan_cache.get_or_build(
                            key,
                            lambda: context.build_plan(graph, mechanism,
                                                       batch=batch))
                        calibration: "Optional[CalibrationTable]" = None
                        if plan.policy.is_quantized:
                            cal_key = (model, plan.policy.name)
                            calibration = calibrations.get(cal_key)
                            if calibration is None:
                                in_name = graph.input_layers()[0]
                                shape = (1,) + tuple(
                                    int(d) for d in
                                    graph.infer_shapes()[in_name][1:])
                                sample = np.random.default_rng(
                                    0).standard_normal(shape).astype(
                                        np.float32)
                                calibration = calibrate_graph(
                                    graph, [sample])
                                calibrations[cal_key] = calibration
                        program = compile_program(
                            graph, plan, calibration=calibration,
                            batch=batch, mechanism=mechanism)
                        self.plan_cache.put_program(key, batch, program)
                        compiled += 1
        return compiled

    def resources_for(self, model: str, device: Device, mechanism: str,
                      batch: int = 1) -> Tuple[str, ...]:
        """The processors a configuration occupies (plan-derived,
        memoized per model/SoC type/mechanism/batch)."""
        key = (model, device.soc.name, mechanism, batch)
        cached = self._resources.get(key)
        if cached is None:
            plan = self.plan_for(model, device, mechanism, batch=batch)
            cached = plan_resources(plan, self.graph(model))
            self._resources[key] = cached
        return cached

    def estimate_service_s(self, model: str, device: Device,
                           mechanism: str, batch: int = 1) -> float:
        """Predicted service time of ``model`` via ``mechanism``.

        With ``batch > 1``, the predicted makespan of the whole batch
        as one inference (what a batching scheduler compares against
        its members' deadlines).  Memoized per (model, SoC type,
        mechanism, batch); the first call warms the plan cache for the
        configuration.
        """
        key = (model, device.soc.name, mechanism, batch)
        cached = self._estimates.get(key)
        if cached is None:
            context = self._contexts[device.soc.name]
            plan = self.plan_for(model, device, mechanism, batch=batch)
            cached = context.estimate_service_s(self.graph(model),
                                                mechanism, plan,
                                                batch=batch)
            self._estimates[key] = cached
        return cached

    def isolated_latency_s(self, model: str,
                           mechanism: str = "mulayer") -> float:
        """Measured unloaded latency, worst across the fleet's SoCs.

        The natural reference point for SLO sizing: an SLO of
        ``k * isolated_latency_s`` gives every device ``k`` times the
        no-contention service time.
        """
        worst = 0.0
        graph = self.graph(model)
        for soc_name, context in self._contexts.items():
            cache_key = (model + ":" + mechanism, soc_name)
            cached = self._isolated.get(cache_key)
            if cached is None:
                device = Device.make("probe:" + soc_name, context.soc)
                plan = self.plan_for(model, device, mechanism)
                cached = context.executor.run(
                    graph, plan, mechanism=mechanism).latency_s
                self._isolated[cache_key] = cached
            worst = max(worst, cached)
        return worst

    def capacity_rps(self, models: Sequence[str],
                     weights: Optional[Sequence[float]] = None) -> float:
        """Rough fleet capacity under all-μLayer execution.

        One over the (weighted) mean isolated μLayer latency, times the
        device count -- the saturation throughput if every request ran
        co-executed with zero scheduling slack.
        """
        if not models:
            raise ValueError("capacity needs at least one model")
        if weights is None:
            share = [1.0 / len(models)] * len(models)
        else:
            total = float(sum(weights))
            share = [w / total for w in weights]
        mean_latency = sum(
            s * self.isolated_latency_s(m)
            for m, s in zip(models, share))
        return len(self.devices) / mean_latency

    def _run_memoized(self, model: str, device: Device, mechanism: str,
                      batch: int) -> InferenceResult:
        """One executor run per configuration, replayed thereafter.

        The executor is deterministic, so replaying the cached
        :class:`InferenceResult` is observationally identical to
        re-executing -- same latency, energy, traffic, timeline -- at
        none of the cost.  ``memoize_results=False`` restores per-
        dispatch execution.
        """
        # Look the plan up unconditionally so the plan cache's
        # hit/miss counters read exactly as they would without result
        # memoization (they are part of the reported metrics).
        plan = self.plan_for(model, device, mechanism, batch=batch)
        key = (model, device.soc.name, mechanism, batch)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        context = self._contexts[device.soc.name]
        kwargs = {"batch": batch} if batch > 1 else {}
        result = context.executor.run(
            self.graph(model), plan, mechanism=f"serve-{mechanism}",
            compiled=self.compiled, **kwargs)
        if self.memoize_results:
            self._results[key] = result
        return result

    def execute(self, request: Request, device: Device, mechanism: str,
                start_s: float) -> Completion:
        """Run one request on a device, advancing its clocks.

        The service time is the executor-reported latency of the cached
        plan; the mechanism's resources are occupied for exactly that
        span starting at ``start_s``.
        """
        result = self._run_memoized(request.model, device, mechanism,
                                    batch=1)
        finish = start_s + result.latency_s
        device.occupy(self.resources_for(request.model, device,
                                         mechanism),
                      start_s, finish)
        return Completion(request=request, device_id=device.device_id,
                          mechanism=mechanism, start_s=start_s,
                          finish_s=finish, result=result)

    def execute_batch(self, requests: Sequence[Request], device: Device,
                      mechanism: str,
                      start_s: float) -> List[Completion]:
        """Run same-model requests as one batched inference.

        The batch executes as a single batch-N plan (weight traffic
        amortized), occupies the plan's resources for the batched
        makespan, and every member request completes at the batch's
        finish time -- per-request latency is its queue wait plus the
        whole batched run, never a fraction of it.

        Raises:
            ValueError: for an empty batch or mixed models.
        """
        if not requests:
            raise ValueError("execute_batch needs at least one request")
        models = {request.model for request in requests}
        if len(models) > 1:
            raise ValueError(
                f"one batch must serve one model, got {sorted(models)}")
        if len(requests) == 1:
            return [self.execute(requests[0], device, mechanism,
                                 start_s)]
        (model,) = models
        batch = len(requests)
        result = self._run_memoized(model, device, mechanism,
                                    batch=batch)
        finish = start_s + result.latency_s
        device.occupy(self.resources_for(model, device, mechanism,
                                         batch=batch),
                      start_s, finish, count=batch)
        return [Completion(request=request, device_id=device.device_id,
                           mechanism=mechanism, start_s=start_s,
                           finish_s=finish, result=result,
                           batch_size=batch)
                for request in requests]


def default_slos(fleet: Fleet, models: Sequence[str],
                 slo_factor: float = 4.0) -> Mapping[str, float]:
    """Per-model SLOs: ``slo_factor`` times the worst isolated μLayer
    latency across the fleet's SoC types."""
    if slo_factor <= 0.0:
        raise ValueError("slo_factor must be positive")
    return {model: slo_factor * fleet.isolated_latency_s(model)
            for model in models}
