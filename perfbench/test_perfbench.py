"""The benchmark's own tests: ``python -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from core import (END_TO_END, WORKLOADS, LoopStats, Workload, build_oracle,
                  closed_loop, end_to_end, generate, rounds,
                  set_up_repeatedly)
from layers import per_layer_units
from measure import measure
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = Workload("smoke", ("squeezenet_mini",), 2)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_declared_metrics_and_workloads_match_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in declared["end_to_end"]]
            == list(END_TO_END))
    assert ([(m["name"], m["unit"]) for m in declared["per_layer"]]
            == per_layer_units())


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric_with_its_unit(trace):
    declared = _declared()["per_layer" if trace else "end_to_end"]
    result = measure(SMOKE, seed=0, seconds=0.3, trace=trace)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] > 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert result["error_rate"] == 0.0


def _tamper_output(runtime):
    run = runtime.run

    def corrupted(*args, **kwargs):
        result = run(*args, **kwargs)
        name = next(iter(result.outputs))
        data = result.outputs[name].data
        data.reshape(-1).view(np.uint8)[0] ^= 1
        return result
    runtime.run = corrupted


def _tamper_oracle(oracle):
    expected = oracle["squeezenet_mini"][0]
    name = next(iter(expected.digests))
    expected.digests[name] = bytes(16)


@pytest.mark.parametrize("where", ["output", "oracle"])
def test_corrupted_comparison_raises_error_rate(where):
    inputs = generate(SMOKE, seed=0)
    deployment, setup_s = set_up_repeatedly(SMOKE, inputs, Tracer(False))
    oracle = build_oracle(SMOKE, inputs, deployment)
    if where == "output":
        _tamper_output(deployment.runtime)
    else:
        _tamper_oracle(oracle)
    stats = LoopStats()
    closed_loop(deployment, inputs, oracle, rounds(SMOKE, inputs), 0.2,
                stats)
    assert stats.failed > 0
    assert end_to_end(stats, setup_s)["error_rate"] > 0


def test_seed_changes_inputs_but_not_simulated_numbers():
    workload = WORKLOADS["minis_b1"]
    a, b = generate(workload, 1), generate(workload, 2)
    model = workload.models[0]
    assert not np.array_equal(a.pool[model][0], b.pool[model][0])
    assert not np.array_equal(a.calibration[model][0],
                              b.calibration[model][0])
    again = generate(workload, 1)
    assert np.array_equal(a.pool[model][0], again.pool[model][0])
    first = measure(workload, seed=1, seconds=0.2, trace=False)
    second = measure(workload, seed=2, seconds=0.2, trace=False)
    for name in ("sim_latency_ms", "sim_energy_mj"):
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minis_b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
