"""Workloads, set-up, the oracle and the closed loop.

Every workload drives the public API the way an application does:
one ``MuLayer(EXYNOS_7420, compiled=True)`` runtime, one client, batch
1, the next request sent as soon as the previous one returns.  Only
``compiled=True`` is set; worker threads, the tuner, the operand
caches, zero-copy and BLAS threading stay at their defaults, so a
knob only shows here once it is the default.

Two kinds of time are reported and never mixed: *wall* time of the
host running the numpy kernels, and *simulated* Exynos 7420 time and
energy from the timing model (units ``sim_ms`` and ``sim_mJ``).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import resource
import statistics
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.models import MINI_MODELS, build_model
from repro.nn import calibrate_graph
from repro.runtime import MuLayer
from repro.runtime.executor import Executor
from repro.soc import EXYNOS_7420

from spans import Tracer

SOC = EXYNOS_7420

#: Calibration images per model (the calibration set).
CALIBRATION_IMAGES = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The end-to-end metrics, in report order, with their units.
#: ``success_rate`` (1 - error_rate) is the machine-read form of the
#: error rate: a metric that is 0 on correct code gives a regression
#: bound nothing to scale.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ips", "images/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
    ("sim_latency_ms", "sim_ms"),
    ("sim_energy_mj", "sim_mJ"),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    Attributes:
        name: the ``--workload`` name.
        models: zoo models served, round-robin with equal counts.
        pool: distinct seeded inputs per model; requests draw from it.
    """

    name: str
    models: Tuple[str, ...]
    pool: int


WORKLOADS: Dict[str, Workload] = {
    # Conv and max-pool kernels do nearly all the work; 85 steps and a
    # branch-distributed plan.
    "googlenet_b1": Workload("googlenet_b1", ("googlenet",), 3),
    # Depthwise and 1x1 pointwise kernels; no max pool, no branch.
    "mobilenet_b1": Workload("mobilenet_b1", ("mobilenet",), 3),
    # Tiny kernels: fixed per-call costs (timing pass, plan-cache
    # lookups, step dispatch) dominate.  Five equal-weight latency
    # modes put p50 in the 3rd and p90 in the 5th model's mode.
    "minis_b1": Workload("minis_b1", tuple(MINI_MODELS), 4),
}


# -- seeded inputs -----------------------------------------------------------

@dataclasses.dataclass
class Inputs:
    """Everything the seed generates: per-model input pools, the
    calibration sets, and the request-order stream."""

    pool: Dict[str, List[np.ndarray]]
    calibration: Dict[str, List[np.ndarray]]
    order: np.random.Generator


def input_shape(model: str) -> Tuple[int, ...]:
    """The batch-1 input shape of a zoo model."""
    graph = build_model(model, with_weights=False)
    return tuple(graph.infer_shapes()[graph.input_layers()[0]])


def generate(workload: Workload, seed: int) -> Inputs:
    """Inputs, calibration set and request order from ``seed``."""
    rng = np.random.default_rng(seed)
    pool: Dict[str, List[np.ndarray]] = {}
    calibration: Dict[str, List[np.ndarray]] = {}
    for model in workload.models:
        shape = input_shape(model)
        pool[model] = [rng.standard_normal(shape, dtype=np.float32)
                       for _ in range(workload.pool)]
        calibration[model] = [rng.standard_normal(shape, dtype=np.float32)
                              for _ in range(CALIBRATION_IMAGES)]
    return Inputs(pool, calibration, np.random.default_rng([seed, 1]))


def rounds(workload: Workload, inputs: Inputs
           ) -> Iterator[List[Tuple[str, int]]]:
    """Endless request rounds: every model once, in a seeded order,
    each with a seeded pool index."""
    while True:
        order = inputs.order.permutation(len(workload.models))
        yield [(workload.models[i],
                int(inputs.order.integers(workload.pool)))
               for i in order]


# -- set-up ------------------------------------------------------------------

@dataclasses.dataclass
class Deployment:
    """The runtime and the per-model state requests run against."""

    runtime: MuLayer
    graphs: Dict[str, object]
    calibrations: Dict[str, object]
    first: Dict[str, object]


def set_up(workload: Workload, inputs: Inputs, tracer: Tracer
           ) -> Deployment:
    """Build, calibrate, construct the runtime and run each model once.

    With tracing on, the plan and the compiled program are requested
    explicitly before the first run so each gets its own span; the
    untraced path lets the first ``run`` build them, as an
    application would.
    """
    graphs, calibrations = {}, {}
    for model in workload.models:
        graph = tracer.call("models.build_model", build_model, model)
        graphs[model] = graph
        calibrations[model] = tracer.call(
            "nn.calibrate_graph", calibrate_graph, graph,
            inputs.calibration[model])
    runtime = tracer.call("runtime.mulayer_init", MuLayer, SOC,
                          compiled=True)
    first = {}
    for model in workload.models:
        graph, calibration = graphs[model], calibrations[model]
        if tracer.enabled:
            tracer.call("runtime.plan", runtime.plan, graph)
            tracer.call("compile.compile", runtime.program, graph,
                        calibration=calibration)
        first[model] = tracer.call(
            "runtime.first_run", runtime.run, graph,
            inputs.pool[model][0], calibration=calibration)
    return Deployment(runtime, graphs, calibrations, first)


def set_up_repeatedly(workload: Workload, inputs: Inputs, tracer: Tracer
                      ) -> Tuple[Deployment, List[float]]:
    """``SETUP_REPEATS`` set-ups; returns the last and every duration
    in seconds.  Earlier deployments are dropped before the next set-up
    so they do not count towards peak memory."""
    durations = []
    deployment = None
    for rep in range(SETUP_REPEATS):
        deployment = None
        gc.collect()
        start = time.perf_counter()
        with tracer.span("setup", request=f"setup{rep}"):
            deployment = set_up(workload, inputs, tracer)
        durations.append(time.perf_counter() - start)
    assert deployment is not None
    return deployment, durations


# -- the oracle --------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Expected:
    """The oracle's answer for one input: per-layer output digests and
    the simulated latency and energy."""

    digests: Dict[str, bytes]
    latency_ms: float
    energy_mj: float


def digest(tensor) -> bytes:
    """A digest of a tensor's storage dtype, shape and bytes."""
    data = np.ascontiguousarray(tensor.data)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{tensor.dtype}|{data.dtype.str}|{data.shape}".encode())
    h.update(memoryview(data).cast("B"))
    return h.digest()


def build_oracle(workload: Workload, inputs: Inputs,
                 deployment: Deployment) -> Dict[str, List[Expected]]:
    """Run the uncached interpreter on every pooled input, on the plan
    the runtime uses, and keep digests only (so the oracle does not
    inflate peak memory)."""
    executor = Executor(SOC, op_caches=False)
    oracle: Dict[str, List[Expected]] = {}
    for model in workload.models:
        graph = deployment.graphs[model]
        calibration = deployment.calibrations[model]
        plan = deployment.runtime.plan(graph)
        expected = []
        for x in inputs.pool[model]:
            result = executor.run(graph, plan, x, calibration)
            expected.append(Expected(
                {name: digest(t) for name, t in result.outputs.items()},
                result.latency_ms, result.energy_mj))
            del result
        oracle[model] = expected
    return oracle


def check(result, expected: Expected) -> Optional[str]:
    """Why ``result`` differs from the oracle, or None if it does not."""
    if result.latency_ms != expected.latency_ms:
        return (f"simulated latency {result.latency_ms!r} ms != oracle "
                f"{expected.latency_ms!r} ms")
    if result.energy_mj != expected.energy_mj:
        return (f"simulated energy {result.energy_mj!r} mJ != oracle "
                f"{expected.energy_mj!r} mJ")
    outputs = result.outputs or {}
    if outputs.keys() != expected.digests.keys():
        return "returned layer set differs from the oracle's"
    for name, tensor in outputs.items():
        if digest(tensor) != expected.digests[name]:
            return f"layer {name!r} output differs from the oracle"
    return None


# -- the closed loop ---------------------------------------------------------

@dataclasses.dataclass
class LoopStats:
    """What one closed-loop phase measured."""

    wall_ms: List[float] = dataclasses.field(default_factory=list)
    busy_s: float = 0.0
    sim_latency_ms: List[float] = dataclasses.field(default_factory=list)
    sim_energy_mj: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, model: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{model}: {why}")


def record(stats: LoopStats, model: str, result,
           expected: Expected) -> None:
    """Check one returned result against the oracle and keep its
    simulated numbers."""
    stats.sim_latency_ms.append(result.latency_ms)
    stats.sim_energy_mj.append(result.energy_mj)
    problem = check(result, expected)
    if problem is not None:
        stats.fail(model, problem)


def closed_loop(deployment: Deployment, inputs: Inputs,
                oracle: Dict[str, List[Expected]],
                requests: Iterator[List[Tuple[str, int]]],
                seconds: float, stats: LoopStats) -> None:
    """Send requests back to back until ``seconds`` of call time.

    Only the ``MuLayer.run`` call is timed; the oracle comparison runs
    between calls.  The loop stops at a round boundary, so every model
    of a mixed workload gets the same number of requests.
    """
    runtime = deployment.runtime
    while stats.busy_s < seconds:
        for model, index in next(requests):
            graph = deployment.graphs[model]
            calibration = deployment.calibrations[model]
            x = inputs.pool[model][index]
            stats.attempted += 1
            start = time.perf_counter()
            try:
                result = runtime.run(graph, x, calibration=calibration)
            except Exception as exc:  # counted, never dropped
                stats.busy_s += time.perf_counter() - start
                stats.fail(model, f"raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            stats.busy_s += elapsed
            stats.wall_ms.append(elapsed * 1e3)
            record(stats, model, result, oracle[model][index])


# -- metrics -----------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(stats: LoopStats, setup_s: Sequence[float]
               ) -> Dict[str, float]:
    """The end-to-end metrics of one run, plus ``error_rate``."""
    error_rate = stats.failed / stats.attempted
    wall = stats.wall_ms or [math.nan]
    return {
        "latency_p50_ms": percentile(wall, 50),
        "latency_p90_ms": percentile(wall, 90),
        # Completed inferences per second of call time: the oracle
        # checks between calls are the benchmark's cost, not the
        # program's.
        "throughput_ips": len(stats.wall_ms) / stats.busy_s,
        "setup_s": float(np.median(setup_s)),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - error_rate,
        "error_rate": error_rate,
        # statistics.mean is exact (rational) then rounded once, so
        # with equal counts per model the mix's mean depends neither
        # on the seeded order nor on the number of rounds.
        "sim_latency_ms": statistics.mean(stats.sim_latency_ms or [math.nan]),
        "sim_energy_mj": statistics.mean(stats.sim_energy_mj or [math.nan]),
    }
