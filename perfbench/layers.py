"""The traced run: per-layer numbers from spans around public calls.

Each traced request makes four separately timed calls:

* ``MuLayer.run`` (``runtime.run``), checked against the oracle;
* ``Executor.run(graph, plan)`` with no input -- the simulated-timing
  pass alone (``runtime.executor_timing``);
* ``CompiledProgram.run(x, keep="all")`` (``compile.program_run``);
* a replay of ``program.steps`` from this file, in the order of
  ``CompiledProgram._run_fresh``, with one span per step (``kernels``);
  its outputs must be byte-identical to ``program.run``'s.

``glue_ms`` (run - timing pass - program run) and ``dispatch_ms``
(program run - sum of step self times) are *derived*: remainders of
calls timed separately, not measured spans.  A negative one means the
separate calls do not add up, and is counted in
``trace.negative_remainders``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from core import Deployment, Expected, Inputs, LoopStats, record
from spans import Tracer

#: Every step kind the workloads compile, ``input`` being the input
#: seeding of a program.
KINDS = ("input", "conv", "depthwise_conv", "fc", "max_pool",
         "avg_pool", "lrn", "concat", "softmax", "flatten")

#: Kinds whose LayerWork counts multiply-accumulates.
MAC_KINDS = ("conv", "depthwise_conv", "fc")

#: Set-up spans and the per-layer metric each one feeds.
SETUP_SPANS = (
    ("models.build_model", "models.build_model_ms"),
    ("nn.calibrate_graph", "nn.calibrate_graph_ms"),
    ("runtime.mulayer_init", "runtime.mulayer_init_ms"),
    ("runtime.plan", "runtime.plan_ms"),
    ("compile.compile", "compile.compile_ms"),
    ("runtime.first_run", "runtime.first_run_ms"),
)

#: How bytes moved are counted, stated in every traced result.
MBYTES_NOTE = ("kernels.<kind>.mbytes = input and output activations at "
               "their storage dtypes + LayerWork.param_elements at the "
               "output storage dtype, per inference; gmacs from "
               "LayerWork.macs")


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit."""
    units = [(metric, "ms") for _, metric in SETUP_SPANS]
    units.insert(5, ("compile.steps", "count"))
    units += [
        ("runtime.run_ms", "ms"),
        ("runtime.executor_timing_ms", "ms"),
        ("runtime.glue_ms", "ms"),
        ("runtime.plan_cache.hit_rate", "share"),
        ("runtime.plan_cache.program_hit_rate", "share"),
        ("compile.program_run_ms", "ms"),
        ("compile.dispatch_ms", "ms"),
    ]
    for kind in KINDS:
        units += [(f"kernels.{kind}.ms", "ms"),
                  (f"kernels.{kind}.calls", "count"),
                  (f"kernels.{kind}.mbytes", "MB")]
        if kind in MAC_KINDS:
            units += [(f"kernels.{kind}.gmacs", "GMAC"),
                      (f"kernels.{kind}.gmac_per_s", "GMAC/s")]
    units += [("trace.overhead_p50_ms", "ms"),
              ("trace.negative_remainders", "count")]
    return units


def replay(program, x: np.ndarray, tracer: Tracer
           ) -> Dict[str, np.ndarray]:
    """Run ``program`` step by step, one span per step."""
    x = program.check_input(x)
    values: Dict[str, np.ndarray] = {}
    for spec in program.inputs:
        with tracer.span(spec.layer, cat="input"):
            values[spec.layer] = spec.fn(x)
    for step in program.steps:
        args = [values[name] for name in step.inputs]
        with tracer.span(step.layer, cat=step.kind):
            values[step.layer] = step.fn(args)
    return values


def _first_difference(values: Dict[str, np.ndarray], outputs) -> str:
    """The first layer whose replayed bytes differ from the program's,
    or '' when all are identical."""
    if values.keys() != outputs.keys():
        return "<layer set>"
    for name, data in values.items():
        ref = outputs[name].data
        if (data.dtype != ref.dtype or data.shape != ref.shape
                or data.tobytes() != ref.tobytes()):
            return name
    return ""


def step_work(graph, program, x: np.ndarray,
              values: Dict[str, np.ndarray]
              ) -> Dict[str, Tuple[int, float]]:
    """Layer -> (MACs, bytes moved) per inference, from LayerWork and
    the storage dtypes of one replay's arrays."""
    work = {spec.layer: (0, float(x.nbytes + values[spec.layer].nbytes))
            for spec in program.inputs}
    for step in program.steps:
        layer_work = graph.layer_work(step.layer)
        out = values[step.layer]
        nbytes = (sum(values[name].nbytes for name in step.inputs)
                  + out.nbytes + layer_work.param_elements * out.itemsize)
        work[step.layer] = (layer_work.macs, float(nbytes))
    return work


def traced_loop(deployment: Deployment, inputs: Inputs,
                oracle: Dict[str, List[Expected]],
                requests: Iterator[List[Tuple[str, int]]],
                seconds: float, tracer: Tracer, stats: LoopStats
                ) -> Tuple[Dict[str, str], Dict[str, Dict]]:
    """Traced requests until ``seconds`` of request time.

    Returns request id -> model, and model -> step work.
    """
    runtime = deployment.runtime
    plans = {m: runtime.plan(g) for m, g in deployment.graphs.items()}
    programs = {m: runtime.program(g, calibration=deployment.calibrations[m])
                for m, g in deployment.graphs.items()}
    works: Dict[str, Dict] = {}
    models: Dict[str, str] = {}
    busy = 0.0
    while busy < seconds:
        for model, index in next(requests):
            graph = deployment.graphs[model]
            program = programs[model]
            x = inputs.pool[model][index]
            rid = f"r{len(models)}"
            models[rid] = model
            stats.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.span("request", cat="request", request=rid):
                    with tracer.span("runtime.run"):
                        result = runtime.run(
                            graph, x,
                            calibration=deployment.calibrations[model])
                    record(stats, model, result, oracle[model][index])
                    with tracer.span("runtime.executor_timing"):
                        runtime.executor.run(graph, plans[model])
                    with tracer.span("compile.program_run"):
                        outputs = program.run(x, keep="all")
                    with tracer.span("compile.replay"):
                        values = replay(program, x, tracer)
                differs = _first_difference(values, outputs)
                if differs:
                    stats.fail(model, "step replay differs from "
                               f"CompiledProgram.run at {differs!r}")
                if model not in works:
                    works[model] = step_work(graph, program, x, values)
            except Exception as exc:  # counted, never dropped
                stats.fail(model, f"traced request raised {exc!r}")
            busy += time.perf_counter() - start
    return models, works


def per_layer(tracer: Tracer, models: Dict[str, str],
              works: Dict[str, Dict], compiled_steps: int,
              cache: Dict[str, float], untraced_p50_ms: float
              ) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    """The per-layer metrics, and the ten slowest steps."""
    setup: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    layer_ms: Dict[str, List[float]] = defaultdict(list)
    kind_ms: Dict[str, float] = defaultdict(float)
    kind_calls: Dict[str, int] = defaultdict(int)
    kind_macs: Dict[str, float] = defaultdict(float)
    kind_bytes: Dict[str, float] = defaultdict(float)
    step_ms: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    setup_names = dict(SETUP_SPANS)
    for span in tracer.spans:
        request = span.request or ""
        if request.startswith("setup"):
            if span.name in setup_names:
                setup[setup_names[span.name]][request] += span.ms
        elif request in models:
            if span.cat == "layer":
                layer_ms[span.name].append(span.ms)
            elif span.cat in KINDS:
                model = models[request]
                macs, nbytes = works[model][span.name]
                kind_ms[span.cat] += span.ms
                kind_calls[span.cat] += 1
                kind_macs[span.cat] += macs
                kind_bytes[span.cat] += nbytes
                step_ms[(model, span.name)].append(span.ms)
    n = len(layer_ms["compile.replay"])
    if n == 0:
        raise RuntimeError("no traced request completed")

    def mean(name: str) -> float:
        return sum(layer_ms[name]) / n

    metrics = {metric: statistics.median(by_rep.values())
               for metric, by_rep in setup.items()}
    metrics["compile.steps"] = float(compiled_steps)
    metrics["runtime.run_ms"] = mean("runtime.run")
    metrics["runtime.executor_timing_ms"] = mean("runtime.executor_timing")
    metrics["compile.program_run_ms"] = mean("compile.program_run")
    metrics["runtime.glue_ms"] = (metrics["runtime.run_ms"]
                                  - metrics["runtime.executor_timing_ms"]
                                  - metrics["compile.program_run_ms"])
    metrics["compile.dispatch_ms"] = (metrics["compile.program_run_ms"]
                                      - sum(kind_ms.values()) / n)
    metrics["runtime.plan_cache.hit_rate"] = cache["hit_rate"]
    metrics["runtime.plan_cache.program_hit_rate"] = (
        cache["program_hit_rate"])
    for kind in KINDS:
        ms = kind_ms[kind] / n
        metrics[f"kernels.{kind}.ms"] = ms
        metrics[f"kernels.{kind}.calls"] = kind_calls[kind] / n
        metrics[f"kernels.{kind}.mbytes"] = kind_bytes[kind] / n / 1e6
        if kind in MAC_KINDS:
            gmacs = kind_macs[kind] / n / 1e9
            metrics[f"kernels.{kind}.gmacs"] = gmacs
            metrics[f"kernels.{kind}.gmac_per_s"] = (
                gmacs / (ms / 1e3) if ms > 0 else 0.0)
    metrics["trace.overhead_p50_ms"] = (
        statistics.median(layer_ms["runtime.run"])
        - untraced_p50_ms)
    metrics["trace.negative_remainders"] = float(
        (metrics["runtime.glue_ms"] < 0)
        + (metrics["compile.dispatch_ms"] < 0))
    slowest = sorted(
        ({"model": model, "layer": layer,
          "ms": sum(ms) / len(ms), "calls": len(ms)}
         for (model, layer), ms in step_ms.items()),
        key=lambda row: -row["ms"])[:10]
    return metrics, slowest
