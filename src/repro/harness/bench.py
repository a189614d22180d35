"""Wall-clock benchmark of functional execution and the sweep harness.

Measures what the operand caches and the process-pool harness actually
buy, in seconds, and emits the numbers as ``BENCH_e2e.json`` so the
perf trajectory is tracked across PRs:

* **functional** -- end-to-end functional inference per mini-zoo model
  and policy, *cold* (a fresh uncached :class:`LayerComputer` per
  inference -- the pre-cache behaviour) versus *warm* (one persistent
  computer whose packed-operand caches carry across inferences, with
  cooperative layers sharing im2col columns).  Outputs are checked
  byte-identical while timing.
* **compiled** -- the compiled fused path (``repro.compile``) against
  the warm functional path on every mini-model cell, on the matched
  0.5-split plan, byte-identity asserted before and after timing.
* **sweep** -- the static verification sweep over the mini zoo, serial
  versus ``jobs`` processes.

All timings go through :func:`~repro.harness.timing.min_time_ms` --
run the leg ``repeats`` times, keep the *minimum* (robust to scheduler
noise on shared machines).  The benchmark is sized to run in well
under a minute so CI can afford it as a smoke job.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..models import MINI_MODELS, build_model
from ..nn import Graph, calibrate_graph
from ..quant.calibrate import CalibrationTable
from ..runtime.compute import LayerComputer
from ..runtime.pfq import (PROCESSOR_FRIENDLY, QuantizationPolicy,
                           UNIFORM_F16, UNIFORM_F32, UNIFORM_QUINT8)
from ..tensor import Tensor
from .timing import min_time_ms

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..runtime.plan import ExecutionPlan

#: The policies the functional benchmark exercises, processor-friendly
#: first (the paper's mechanism).
BENCH_POLICIES: Dict[str, QuantizationPolicy] = {
    "pfq": PROCESSOR_FRIENDLY,
    "quint8": UNIFORM_QUINT8,
    "f16": UNIFORM_F16,
    "f32": UNIFORM_F32,
}

#: Weight-heavy full models added to the default grid under the
#: quantized policies, where re-packing weights per inference (the
#: cold path) dominates.  Timed with a single repeat -- AlexNet's cold
#: leg re-quantizes and re-widens ~61M weights per inference.
_FULL_MODELS: Dict[str, "tuple[str, ...]"] = {
    "alexnet": ("pfq", "quint8"),
}


def _run_functional(graph: Graph, computer: LayerComputer,
                    x: np.ndarray) -> Tensor:
    """One cooperative functional inference (0.5 CPU/GPU split on every
    splittable layer -- the configuration that exercises both PFQ
    pipelines and column sharing)."""
    computer.begin_inference()
    input_name = graph.input_layers()[0]
    values = {input_name: computer.input_tensor(input_name, x)}
    for name in graph.compute_layers():
        inputs = [values[p] for p in graph.inputs_of(name)]
        if graph.layer(name).supports_channel_split:
            values[name] = computer.run_cooperative(name, inputs, 0.5)
        else:
            values[name] = computer.run_full(name, inputs, "cpu")
    return values[graph.output_layers()[0]]


def _bench_model_policy(graph: Graph, calibration: CalibrationTable,
                        policy: QuantizationPolicy, x: np.ndarray,
                        repeats: int) -> Dict[str, float]:
    """Cold-vs-warm timing of one (model, policy) cell.

    Every leg is timed per iteration and reported as the *minimum*
    over ``repeats``: on a shared/noisy machine the min is the only
    robust estimator of the code's actual cost (means fold scheduler
    preemptions into the slower leg at random, which is how warm runs
    used to come out "slower" than cold ones on the tiny mini-model
    cells).
    """
    # Cold: the pre-cache behaviour -- a fresh computer per inference,
    # no caches, so weights re-quantize and operands re-pack each time;
    # computer construction is part of the timed region.
    def cold_inference() -> Tensor:
        cold_computer = LayerComputer(graph, policy, calibration,
                                      enable_caches=False)
        return _run_functional(graph, cold_computer, x)

    cold_ms, reference = min_time_ms(cold_inference, repeats)

    # Warm: one persistent cached computer; the first inference fills
    # the packed-operand caches and is not timed.
    computer = LayerComputer(graph, policy, calibration,
                             enable_caches=True)
    warmup = _run_functional(graph, computer, x)
    if warmup.data.tobytes() != reference.data.tobytes():
        raise AssertionError(
            "cached execution diverged from uncached output")
    warm_ms, out = min_time_ms(
        lambda: _run_functional(graph, computer, x), repeats)
    if out.data.tobytes() != reference.data.tobytes():
        raise AssertionError(
            "warm cached execution diverged from uncached output")

    stats = computer.cache_stats()
    return {
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "speedup": cold_ms / warm_ms if warm_ms > 0 else float("inf"),
        "im2col_hit_rate": stats["im2col"]["hit_rate"],
        "packed_hit_rate": stats["packed"]["hit_rate"],
    }


def _matched_split_plan(graph: Graph,
                        policy: QuantizationPolicy) -> ExecutionPlan:
    """The plan equivalent of :func:`_run_functional`'s placements.

    0.5 CPU/GPU cooperative split on every splittable layer, CPU for
    the rest -- so the compiled program and the functional leg execute
    the exact same per-layer pipelines and their outputs can be
    asserted byte-identical.
    """
    from ..runtime.plan import ExecutionPlan, LayerAssignment

    assignments = {}
    for name in graph.compute_layers():
        if graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, 0.5)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def _bench_compiled(graph: Graph, calibration: CalibrationTable,
                    policy: QuantizationPolicy, x: np.ndarray,
                    repeats: int, warm_ms: float) -> Dict[str, float]:
    """Compiled-vs-functional timing of one (model, policy) cell.

    Lowers the matched 0.5-split plan, asserts the program's output is
    byte-identical to the warm functional path, and times steady-state
    arena runs (min over ``repeats``, like the functional legs).
    ``warm_ms`` is the cell's warm functional time, the denominator
    the compiled speedup is quoted against.
    """
    from ..compile import compile_program

    computer = LayerComputer(graph, policy, calibration,
                             enable_caches=True)
    reference = _run_functional(graph, computer, x)

    plan = _matched_split_plan(graph, policy)
    compile_ms, program = min_time_ms(
        lambda: compile_program(graph, plan, calibration,
                                mechanism="bench"), 1)
    output = graph.output_layers()[0]
    out = program.run(x, keep="outputs")[output]
    if out.data.tobytes() != reference.data.tobytes():
        raise AssertionError(
            "compiled execution diverged from the functional output")
    compiled_ms, out = min_time_ms(
        lambda: program.run(x, keep="outputs")[output], repeats)
    if out.data.tobytes() != reference.data.tobytes():
        raise AssertionError(
            "steady-state compiled execution diverged from the "
            "functional output")
    return {
        "compile_ms": compile_ms,
        "warm_ms": warm_ms,
        "compiled_ms": compiled_ms,
        "speedup": (warm_ms / compiled_ms if compiled_ms > 0
                    else float("inf")),
        "arena_bytes": float(program.arena.arena_bytes),
    }


def run_bench(models: Optional[Sequence[str]] = None, repeats: int = 3,
              jobs: Optional[int] = None,
              policies: Optional[Sequence[str]] = None,
              compiled: bool = True) -> Dict:
    """The full benchmark; returns a JSON-ready dict.

    Args:
        models: models to time (default: the mini zoo).
        repeats: timed inferences per (model, policy) cell.
        jobs: process count for the parallel sweep timing; None skips
            the parallel leg (the serial leg always runs).
        policies: policy names from :data:`BENCH_POLICIES` (default:
            all four).
        compiled: also time the compiled fused path against the warm
            functional path on every mini-model cell, asserting
            byte-identity (the ``compiled`` block of the output).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if models is not None:
        chosen = tuple(policies) if policies else tuple(BENCH_POLICIES)
        grid = [(model, chosen, repeats) for model in models]
    else:
        # The default grid: every mini across every policy, plus the
        # weight-heavy full models under their quantized policies.
        chosen = tuple(policies) if policies else tuple(BENCH_POLICIES)
        grid = [(model, chosen, repeats) for model in MINI_MODELS]
        for model, quant_policies in _FULL_MODELS.items():
            selected = tuple(p for p in quant_policies
                             if policies is None or p in policies)
            if selected:
                grid.append((model, selected, 1))
    rng = np.random.default_rng(0)

    functional: Dict[str, Dict[str, float]] = {}
    compiled_cells: Dict[str, Dict[str, float]] = {}
    cold_total = warm_total = 0.0
    compiled_warm_total = compiled_total = 0.0
    sweep_models: List[str] = []
    for model, model_policies, model_repeats in grid:
        sweep_models.append(model)
        graph = build_model(model, with_weights=True)
        shape = graph.infer_shapes()[graph.input_layers()[0]]
        x = rng.standard_normal(shape).astype(np.float32)
        calibration = calibrate_graph(graph, [x])
        for policy_name in model_policies:
            # Mini cells run in single-digit milliseconds, where a
            # min over 3 samples still flakes on a loaded shared
            # runner; a floor of 7 stabilizes the minimum without
            # touching the full models (whose single repeat is the
            # expensive leg) or the compiled leg.
            cell = _bench_model_policy(
                graph, calibration, BENCH_POLICIES[policy_name], x,
                max(model_repeats, 7) if model in MINI_MODELS
                else model_repeats)
            functional[f"{model}/{policy_name}"] = cell
            cold_total += cell["cold_ms"]
            warm_total += cell["warm_ms"]
            # Compiled leg only on the minis: compiling a full model
            # re-packs its tens of millions of weights, which belongs
            # to compile time, not to this smoke-sized benchmark.
            if compiled and model in MINI_MODELS:
                ccell = _bench_compiled(
                    graph, calibration, BENCH_POLICIES[policy_name], x,
                    model_repeats, cell["warm_ms"])
                compiled_cells[f"{model}/{policy_name}"] = ccell
                compiled_warm_total += ccell["warm_ms"]
                compiled_total += ccell["compiled_ms"]

    chosen_models = tuple(sweep_models)
    sweep: Dict[str, float] = {}
    from ..analysis.verify import verify_sweep
    t0 = time.perf_counter()
    serial_entries = verify_sweep(models=chosen_models)
    sweep["serial_s"] = time.perf_counter() - t0
    sweep["cells"] = float(len(serial_entries))
    if jobs is not None and jobs != 1:
        t0 = time.perf_counter()
        parallel_entries = verify_sweep(models=chosen_models, jobs=jobs)
        sweep["parallel_s"] = time.perf_counter() - t0
        sweep["jobs"] = float(jobs)
        if [(e.model, e.soc, e.mechanism) for e in parallel_entries] != \
                [(e.model, e.soc, e.mechanism) for e in serial_entries]:
            raise AssertionError(
                "parallel sweep order diverged from serial")

    results: Dict = {
        "schema": 1,
        "repeats": repeats,
        "functional": functional,
        "summary": {
            "cold_total_ms": cold_total,
            "warm_total_ms": warm_total,
            "speedup": (cold_total / warm_total if warm_total > 0
                        else float("inf")),
        },
        "sweep": sweep,
    }
    if compiled_cells:
        results["compiled"] = {
            "cells": compiled_cells,
            "summary": {
                "warm_total_ms": compiled_warm_total,
                "compiled_total_ms": compiled_total,
                "speedup": (compiled_warm_total / compiled_total
                            if compiled_total > 0 else float("inf")),
            },
        }
    return results


#: Batch-size axis of the serving-throughput benchmark.
SERVE_BATCH_SIZES = (1, 2, 4, 8)

#: Arrival rates of the serving-throughput benchmark, as multiples of
#: the fleet's batch-1 μLayer capacity.  The sub-capacity point shows
#: batching's latency cost at modest load; the overload point must
#: exceed even the largest batch configuration's capacity so every
#: cell stays service-bound -- that is where batching's amortization
#: shows up as completed requests per second rather than being capped
#: by the arrival rate.
SERVE_LOAD_FACTORS = (0.8, 4.0)


def run_serve_batch_bench(model: str = "vgg_mini",
                          batch_sizes: Sequence[int] = SERVE_BATCH_SIZES,
                          load_factors: Sequence[float]
                          = SERVE_LOAD_FACTORS,
                          num_requests: int = 128,
                          num_devices: int = 2,
                          soc_names: Sequence[str] = ("exynos7420",),
                          batch_timeout_s: float = 0.01,
                          slo_factor: float = 16.0,
                          seed: int = 2019) -> Dict:
    """Serving throughput vs. batch size x arrival rate
    (``BENCH_serve_batch.json``).

    For each (max_batch, load) cell a fresh fleet serves one seeded
    Poisson trace under the :class:`~repro.serve.DynamicBatchScheduler`
    capped at ``max_batch``; ``max_batch=1`` is the unbatched baseline.
    All times are *simulated* (the executor's deterministic timing
    model), so the numbers are bit-stable across machines and CI can
    gate on them: at the overload factor, throughput must rise
    monotonically with the batch cap while the reported p99 latency
    shows what that throughput costs.  One plan cache is shared across
    cells so each (mechanism, batch) configuration partitions once.
    """
    from ..runtime.plan_cache import PlanCache
    from ..serve import (DynamicBatchScheduler, Fleet, PoissonWorkload,
                         ServingMetrics, ServingSimulator, default_slos)

    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    plan_cache = PlanCache()
    reference = Fleet.build(soc_names, num_devices,
                            plan_cache=plan_cache)
    capacity = reference.capacity_rps([model])
    slos = default_slos(reference, [model], slo_factor=slo_factor)
    cells: List[Dict[str, float]] = []
    for load in load_factors:
        rate = capacity * load
        trace = PoissonWorkload(rate_rps=rate, models=[model],
                                slo_s=slos, seed=seed
                                ).generate(num_requests)
        for max_batch in batch_sizes:
            fleet = Fleet.build(soc_names, num_devices,
                                plan_cache=plan_cache)
            scheduler = DynamicBatchScheduler(
                max_batch=max_batch, batch_timeout_s=batch_timeout_s)
            result = ServingSimulator(fleet, scheduler).run(trace)
            metrics = ServingMetrics.from_result(result)
            cells.append({
                "max_batch": float(max_batch),
                "load": load,
                "rate_rps": rate,
                "throughput_rps": metrics.throughput_rps,
                "latency_p50_ms": metrics.latency_p50_ms,
                "latency_p99_ms": metrics.latency_p99_ms,
                "queue_wait_p99_ms": metrics.queue_wait_p99_ms,
                "slo_attainment": metrics.slo_attainment,
                "batch_size_mean": metrics.batch_size_mean,
                "num_batches": float(metrics.num_batches),
            })
    return {
        "schema": 1,
        "model": model,
        "socs": list(soc_names),
        "num_devices": num_devices,
        "num_requests": num_requests,
        "batch_timeout_s": batch_timeout_s,
        "slo_factor": slo_factor,
        "seed": seed,
        "capacity_rps": capacity,
        "peak_load": max(load_factors),
        "sweep": cells,
    }


def render_serve_batch_bench(results: Dict) -> str:
    """The serving-batch benchmark as a printable table."""
    from .report import format_table
    rows: List[List] = [
        [int(cell["max_batch"]), cell["load"], cell["throughput_rps"],
         cell["latency_p50_ms"], cell["latency_p99_ms"],
         cell["queue_wait_p99_ms"], cell["batch_size_mean"]]
        for cell in results["sweep"]]
    text = format_table(
        ["max_batch", "load", "req/s", "p50_ms", "p99_ms",
         "wait_p99_ms", "mean_batch"],
        rows,
        title=(f"serving throughput, {results['model']} on "
               f"{'+'.join(results['socs'])} x{results['num_devices']}"))
    text += (f"\n\nbatch-1 capacity {results['capacity_rps']:.1f} req/s;"
             f" {results['num_requests']} requests per cell "
             f"(simulated time)")
    return text


#: Fleet sizes (total replicas across pools) of the fleet-scale
#: benchmark, smallest first.
FLEET_SIZES = (2, 4, 6)


def run_fleet_bench(fleet_sizes: Sequence[int] = FLEET_SIZES,
                    routers: Optional[Sequence[str]] = None,
                    models: Sequence[str] = ("mobilenet_mini",
                                             "squeezenet_mini"),
                    num_requests: int = 100_000,
                    slo_factor: float = 8.0,
                    load_factor: float = 1.3,
                    seed: int = 2019) -> Dict:
    """SLO attainment and tail latency vs. fleet size per router
    (``BENCH_fleet_scale.json``).

    One fixed diurnal reference trace (rate sized to ``load_factor``
    times the *smallest* fleet's capacity, so the small fleet is
    overloaded and the large one has headroom) is replayed against
    clusters of growing total replica count, once per router policy.
    Replica counts are fixed (autoscaler off) and the trace is
    identical across cells, so SLO attainment must be monotone
    non-decreasing in fleet size for every router -- adding replicas
    under an unchanged workload can only help.  All times are
    simulated, so the numbers are bit-stable across machines and CI
    gates on them.
    """
    from ..cluster import (ClusterConfig, ClusterMetrics,
                           ClusterSimulator, PoolSpec, ROUTER_NAMES)
    from ..serve import TenantClass, diurnal_trace

    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    sizes = sorted(fleet_sizes)
    if sizes[0] < 2:
        raise ValueError("fleet sizes must be >= 2 (two pools)")
    chosen_routers = tuple(routers) if routers else ROUTER_NAMES

    def pools_of(total: int) -> "tuple[PoolSpec, ...]":
        flagship = (total + 1) // 2
        midrange = total - flagship
        return (
            PoolSpec(name="flagship", soc="exynos7420",
                     max_replicas=flagship, min_replicas=flagship),
            PoolSpec(name="midrange", soc="exynos7880",
                     max_replicas=max(1, midrange),
                     min_replicas=max(1, midrange)),
        )

    # Rate reference: the smallest cluster's all-μLayer capacity,
    # estimated the same way Fleet.capacity_rps does.
    from ..serve import Fleet
    smallest = pools_of(sizes[0])
    capacity = sum(
        Fleet.build([spec.soc], spec.max_replicas).capacity_rps(
            list(models))
        for spec in smallest)
    rate = load_factor * capacity

    probe = Fleet.build([spec.soc for spec in smallest], len(smallest))
    from ..serve import default_slos
    slos = dict(default_slos(probe, list(models),
                             slo_factor=slo_factor))
    # Compress the diurnal period to the run: at these rates the whole
    # trace spans a few seconds, so the default 240 s "day" would keep
    # every request in the trough segment and no fleet would ever see
    # the peak.  Two full cycles per run exercise both extremes.
    expected_span_s = num_requests / rate
    trace = diurnal_trace(
        rate, list(models), slo_s=slos, seed=seed,
        period_s=expected_span_s / 2.0,
        tenants=(TenantClass("premium", 1.0, 0),
                 TenantClass("standard", 2.0, 1))).generate(
                     num_requests)

    cells: List[Dict[str, object]] = []
    for router in chosen_routers:
        for total in sizes:
            config = ClusterConfig(
                pools=pools_of(total), models=tuple(models),
                slos=slos, rate_rps=rate, router=router, seed=seed)
            simulator = ClusterSimulator(config)
            metrics = ClusterMetrics.from_result(simulator.run(trace))
            cells.append({
                "router": router,
                "fleet_size": float(total),
                "rate_rps": rate,
                "throughput_rps": metrics.throughput_rps,
                "slo_attainment": metrics.slo_attainment,
                "latency_p50_ms": metrics.latency_p50_ms,
                "latency_p99_ms": metrics.latency_p99_ms,
                "num_shed": float(metrics.num_shed),
            })
    return {
        "schema": 1,
        "models": list(models),
        "num_requests": num_requests,
        "fleet_sizes": [float(size) for size in sizes],
        "routers": list(chosen_routers),
        "slo_factor": slo_factor,
        "load_factor": load_factor,
        "capacity_rps_smallest": capacity,
        "seed": seed,
        "sweep": cells,
    }


def render_fleet_bench(results: Dict) -> str:
    """The fleet-scale benchmark as a printable table."""
    from .report import format_table
    rows: List[List] = [
        [cell["router"], int(cell["fleet_size"]),
         cell["throughput_rps"], cell["slo_attainment"],
         cell["latency_p50_ms"], cell["latency_p99_ms"],
         int(cell["num_shed"])]
        for cell in results["sweep"]]
    text = format_table(
        ["router", "fleet", "req/s", "attainment", "p50_ms", "p99_ms",
         "shed"],
        rows,
        title=(f"fleet scaling, {'+'.join(results['models'])}, "
               f"{results['num_requests']} requests"))
    text += (f"\n\nrate {results['sweep'][0]['rate_rps']:.1f} req/s = "
             f"{results['load_factor']:.1f}x the smallest fleet's "
             "capacity (simulated time)")
    return text


def render_bench(results: Dict) -> str:
    """The benchmark results as a printable table."""
    from .report import format_table
    rows: List[List] = []
    for cell_name in sorted(results["functional"]):
        cell = results["functional"][cell_name]
        rows.append([cell_name, cell["cold_ms"], cell["warm_ms"],
                     cell["speedup"], cell["im2col_hit_rate"],
                     cell["packed_hit_rate"]])
    text = format_table(
        ["model/policy", "cold_ms", "warm_ms", "speedup",
         "im2col_hits", "packed_hits"],
        rows, title="functional inference, cold vs warm caches")
    summary = results["summary"]
    text += (f"\n\ntotal: cold {summary['cold_total_ms']:.1f} ms, "
             f"warm {summary['warm_total_ms']:.1f} ms, "
             f"speedup {summary['speedup']:.2f}x")
    compiled = results.get("compiled")
    if compiled:
        rows = [[cell_name, cell["compile_ms"], cell["warm_ms"],
                 cell["compiled_ms"], cell["speedup"]]
                for cell_name in sorted(compiled["cells"])
                for cell in [compiled["cells"][cell_name]]]
        text += "\n\n" + format_table(
            ["model/policy", "compile_ms", "warm_ms", "compiled_ms",
             "speedup"],
            rows, title="compiled fused path vs warm functional")
        csummary = compiled["summary"]
        text += (f"\n\ncompiled total: functional warm "
                 f"{csummary['warm_total_ms']:.1f} ms, compiled "
                 f"{csummary['compiled_total_ms']:.1f} ms, speedup "
                 f"{csummary['speedup']:.2f}x")
    sweep = results.get("sweep", {})
    if "serial_s" in sweep:
        text += (f"\nverify sweep ({int(sweep.get('cells', 0))} cells): "
                 f"serial {sweep['serial_s']:.2f} s")
        if "parallel_s" in sweep:
            text += (f", {int(sweep['jobs'])} jobs "
                     f"{sweep['parallel_s']:.2f} s")
    return text
