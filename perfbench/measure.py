"""One benchmark run: set up, build the oracle, measure, report."""

from __future__ import annotations

import math
import os
from typing import Dict, List

from core import (END_TO_END, LoopStats, Workload, build_oracle,
                  closed_loop, end_to_end, generate, record, rounds,
                  set_up_repeatedly)
from layers import MBYTES_NOTE, per_layer, per_layer_units, traced_loop
from spans import Tracer


def _cache_counts(cache) -> List[int]:
    return [cache.hits, cache.misses, cache.program_hits,
            cache.program_misses]


def _hit_rates(before: List[int], after: List[int]) -> Dict[str, float]:
    """Plan-cache hit rates over one phase, from counter snapshots."""
    hits, misses, p_hits, p_misses = (a - b for a, b in zip(after, before))
    return {"hit_rate": hits / max(1, hits + misses),
            "program_hit_rate": p_hits / max(1, p_hits + p_misses)}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            trace_path: str = "") -> Dict[str, object]:
    """Run ``workload`` once and return its result.

    Untraced, the closed loop measures for ``seconds`` and the result
    carries the end-to-end metrics.  Traced, half the time is an
    untraced loop (the baseline of the tracing overhead) and half the
    traced loop, and the result carries the per-layer metrics; the
    spans go to ``trace_path`` when one is given.
    """
    tracer = Tracer(trace)
    inputs = generate(workload, seed)
    deployment, setup_s = set_up_repeatedly(workload, inputs, tracer)
    oracle = build_oracle(workload, inputs, deployment)
    runtime = deployment.runtime

    stats = LoopStats()
    for model, first in deployment.first.items():
        stats.attempted += 1
        record(stats, model, first, oracle[model][0])
    deployment.first.clear()

    requests = rounds(workload, inputs)
    before = _cache_counts(runtime.plan_cache)
    closed_loop(deployment, inputs, oracle, requests,
                seconds / 2 if trace else seconds, stats)
    cache = _hit_rates(before, _cache_counts(runtime.plan_cache))
    e2e = end_to_end(stats, setup_s)
    p90 = e2e["latency_p90_ms"]
    result: Dict[str, object] = {
        "workload": workload.name,
        "models": list(workload.models),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": len(stats.wall_ms),
        "beyond_p90": sum(1 for ms in stats.wall_ms if ms > p90),
        "setup_s_each": setup_s,
        "idle": {
            "repro.tune": runtime.tuner is None,
            "compile.parallel": runtime.executor.workers == 1,
            "runtime.workers": runtime.executor.workers == 1,
        },
    }
    if trace:
        models, works = traced_loop(deployment, inputs, oracle, requests,
                                    seconds / 2, tracer, stats)
        steps = sum(len(runtime.program(g, calibration=c).steps)
                    for g, c in zip(deployment.graphs.values(),
                                    deployment.calibrations.values()))
        values, slowest = per_layer(tracer, models, works, steps, cache,
                                    e2e["latency_p50_ms"])
        units = per_layer_units()
        result["slowest_steps"] = slowest
        result["traced_requests"] = len(models)
        result["notes"] = [
            MBYTES_NOTE,
            "runtime.glue_ms and compile.dispatch_ms are derived "
            "remainders of separately timed calls, not measured spans",
        ]
        if trace_path:
            tracer.write_chrome(trace_path)
            result["trace_file"] = os.path.basename(trace_path)
    else:
        values, units = e2e, list(END_TO_END)
        result["error_rate"] = e2e["error_rate"]
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units}
    result["attempted"] = stats.attempted
    result["failed"] = stats.failed
    result["errors"] = stats.errors
    result["correct"] = stats.failed == 0 and all(
        math.isfinite(m["value"]) for m in result["metrics"].values())
    return result
