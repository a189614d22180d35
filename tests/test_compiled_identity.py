"""Byte-identity of the compiled fused path.

The compiled execution path's correctness bar, mirroring the batching
suite: running a graph through the lowered
:class:`~repro.compile.program.CompiledProgram` must be *byte-identical*
to the per-layer functional interpreter (which builds every operand
inline, with no caches) -- for every mini-zoo model,
five plan mechanisms (single-processor baseline, matched cooperative
splits under uniform F16, uniform F32 and PFQ -- the last pairing an
integer CPU part with an F16-over-QUInt8 GPU part on every splittable
layer -- and the partitioner's PFQ plan),
batch sizes 1 and 4, and several seeded inputs per cell (a rounding
divergence can hide on any one input).  The
compiled path reproduces the interpreter's exact kernel semantics
(per-sample GEMM rows, f16 rounding points, int32 wrapping
requantization), so there is no float tolerance to hide behind.
Both run modes are held to it: ``keep="all"`` against the
interpreter, the arena-backed ``keep="outputs"`` against ``"all"``.
CI reruns this file under several ``PYTHONHASHSEED`` values, so the
compiled step order must not depend on dict/set iteration order.
"""

import numpy as np
import pytest

from repro.compile import compile_program
from repro.models import MINI_MODELS, build_model
from repro.nn import calibrate_graph
from repro.runtime import (MuLayer, PROCESSOR_FRIENDLY, UNIFORM_F16,
                           UNIFORM_F32, UNIFORM_QUINT8)
from repro.runtime.baselines import single_processor_plan
from repro.runtime.executor import Executor
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.soc import EXYNOS_7420

MECHANISMS = ("baseline", "split", "split_f32", "split_pfq", "pfq")
BATCHES = (1, 4)
#: Seeded inputs checked per (model, mechanism, batch) cell.
INPUTS_PER_CELL = 3


def _split_plan(graph, policy):
    """A 0.5 CPU/GPU cooperative split on every splittable layer."""
    assignments = {}
    for name in graph.compute_layers():
        if graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, 0.5)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def _plan_for(graph, mechanism):
    if mechanism == "baseline":
        return single_processor_plan(graph, "cpu", UNIFORM_QUINT8)
    if mechanism == "split":
        return _split_plan(graph, UNIFORM_F16)
    if mechanism == "split_f32":
        return _split_plan(graph, UNIFORM_F32)
    if mechanism == "split_pfq":
        return _split_plan(graph, PROCESSOR_FRIENDLY)
    assert mechanism == "pfq"
    return MuLayer(EXYNOS_7420, PROCESSOR_FRIENDLY).plan(graph)


@pytest.fixture(scope="module")
def zoo():
    """Every mini model with weights and a calibration table."""
    rng = np.random.default_rng(20190325)
    cells = {}
    for model in MINI_MODELS:
        graph = build_model(model)
        batches = [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                   for _ in range(2)]
        cells[model] = (graph, calibrate_graph(graph, batches))
    return cells


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("model", MINI_MODELS)
def test_compiled_matches_functional(zoo, model, mechanism, batch):
    """Compiled and interpreted runs agree byte-for-byte on every
    layer output (same executor, same plan, same calibration), on
    each seeded input."""
    graph, calibration = zoo[model]
    plan = _plan_for(graph, mechanism)
    program = compile_program(graph, plan, calibration, batch=batch)
    executor = Executor(EXYNOS_7420)
    rng = np.random.default_rng(batch)
    for draw in range(INPUTS_PER_CELL):
        x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
        functional = executor.run(graph, plan, x=x,
                                  calibration=calibration)
        compiled = executor.run(graph, plan, x=x,
                                calibration=calibration, program=program)
        assert set(compiled.outputs) == set(functional.outputs)
        for name, expected in functional.outputs.items():
            actual = compiled.outputs[name]
            assert actual.dtype == expected.dtype, (draw, name)
            assert actual.data.dtype == expected.data.dtype, (draw, name)
            assert (actual.data.tobytes()
                    == expected.data.tobytes()), (draw, name)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("model", MINI_MODELS)
def test_arena_run_matches_fresh_run(zoo, model, mechanism, batch):
    """keep="outputs" (arena-backed buffers, reused across runs) and
    keep="all" (fresh per-layer arrays) produce identical graph
    outputs, including on a second run over the reused arena."""
    graph, calibration = zoo[model]
    plan = _plan_for(graph, mechanism)
    program = compile_program(graph, plan, calibration, batch=batch)
    x = np.random.default_rng(7).standard_normal(
        (batch, 3, 32, 32)).astype(np.float32)
    fresh = program.run(x, keep="all")
    for _ in range(2):
        arena = program.run(x, keep="outputs")
        assert set(arena) == set(graph.output_layers())
        for name, actual in arena.items():
            assert actual.data.dtype == fresh[name].data.dtype, name
            assert (actual.data.tobytes()
                    == fresh[name].data.tobytes()), name


def test_program_stats_describe(zoo):
    """describe() reports the lowered shape of the program: one step
    per compute layer, a non-trivial fused-op count, and a planned
    arena."""
    graph, calibration = zoo["vgg_mini"]
    plan = _plan_for(graph, "pfq")
    program = compile_program(graph, plan, calibration)
    info = program.describe()
    assert info["graph"] == graph.name
    assert len(program.steps) == len(graph.compute_layers())
    assert info["arena_bytes"] > 0
    assert info["arena_slots"] > 0
