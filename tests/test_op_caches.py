"""Operands: packed once by the compiler, built inline by the interpreter.

A compiled program packs every weight-side operand (filter codes,
centred f32 weight blocks, f16 casts, the integer bias, depthwise taps)
once, at compile time; the :class:`LayerComputer` builds the same
operands inline on every call and keeps nothing between calls.  These
tests hold the two byte-identical on every layer output, for every
layer shape (conv, FC, depthwise), placement style (whole layer on the
CPU, cooperative split) and policy (F32, F16, QUInt8, PFQ), and check
that neither path computes with the operands of replaced or mutated
weights.
"""

import pytest

from repro.compile import compile_program
from repro.runtime import (LayerComputer, PROCESSOR_FRIENDLY,
                           UNIFORM_F16, UNIFORM_F32, UNIFORM_QUINT8)
from repro.runtime.executor import Executor
from repro.runtime.plan import ExecutionPlan, LayerAssignment

POLICIES = {
    "f32": UNIFORM_F32,
    "f16": UNIFORM_F16,
    "quint8": UNIFORM_QUINT8,
    "pfq": PROCESSOR_FRIENDLY,
}


def run_graph(graph, computer, x, cooperative=False, split=0.5):
    """One interpreted inference; returns every layer's output."""
    input_name = graph.input_layers()[0]
    values = {input_name: computer.input_tensor(input_name, x)}
    for name in graph.compute_layers():
        inputs = [values[p] for p in graph.inputs_of(name)]
        if cooperative and graph.layer(name).supports_channel_split:
            values[name] = computer.run_cooperative(name, inputs, split)
        else:
            values[name] = computer.run_full(name, inputs, "cpu")
    return values


def matched_plan(graph, policy, cooperative=False, split=0.5):
    """The plan whose placements :func:`run_graph` interprets."""
    assignments = {}
    for name in graph.compute_layers():
        if cooperative and graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, split)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def assert_identical(a, b):
    assert a.dtype == b.dtype
    assert a.data.dtype == b.data.dtype
    assert a.data.shape == b.data.shape
    assert a.data.tobytes() == b.data.tobytes()


def assert_all_identical(expected, actual):
    assert set(actual) == set(expected)
    for name, tensor in expected.items():
        assert_identical(tensor, actual[name])


def _calibration_for(policy, name, request):
    if not policy.is_quantized:
        return None
    return request.getfixturevalue(name)


def _check_model(graph, policy, calibration, x, cooperative,
                 split=0.5):
    """Interpreter == compiled program, twice over (the second program
    run reuses the first one's buffers)."""
    computer = LayerComputer(graph, policy, calibration)
    program = compile_program(
        graph, matched_plan(graph, policy, cooperative, split),
        calibration)
    for _ in range(2):
        expected = run_graph(graph, computer, x, cooperative, split)
        assert_all_identical(expected, program.run(x, keep="all"))


class TestByteIdentity:
    """Compiled (packed once) == interpreted (built inline), byte for
    byte, on every layer."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("cooperative", [False, True],
                             ids=["full", "coop"])
    def test_conv_fc_model(self, request, policy_name, cooperative,
                           squeezenet_mini, single_input):
        """squeezenet_mini covers conv + FC + concat layers."""
        policy = POLICIES[policy_name]
        calibration = _calibration_for(
            policy, "squeezenet_calibration", request)
        _check_model(squeezenet_mini, policy, calibration, single_input,
                     cooperative)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("cooperative", [False, True],
                             ids=["full", "coop"])
    def test_depthwise_model(self, request, policy_name, cooperative,
                             mobilenet_mini, single_input):
        """mobilenet_mini covers depthwise convolutions."""
        policy = POLICIES[policy_name]
        calibration = _calibration_for(
            policy, "mobilenet_mini_calibration", request)
        _check_model(mobilenet_mini, policy, calibration, single_input,
                     cooperative)

    @pytest.mark.parametrize("split", [0.25, 0.5, 0.75])
    def test_uneven_splits(self, squeezenet_mini, squeezenet_calibration,
                           single_input, split):
        _check_model(squeezenet_mini, PROCESSOR_FRIENDLY,
                     squeezenet_calibration, single_input,
                     cooperative=True, split=split)


class TestWeightInvalidation:
    """Neither path computes with the operands of old weights."""

    def _single_conv(self, graph, computer, x, name):
        input_name = graph.input_layers()[0]
        t = computer.input_tensor(input_name, x)
        return computer.run_full(name, [t], "cpu")

    def test_replaced_weights_requantize(self, squeezenet_mini,
                                         squeezenet_calibration,
                                         single_input):
        """Installing new arrays via set_weights: the interpreter
        quantizes the new arrays on its next call, and a program
        compiled over the old ones reports itself stale."""
        name = squeezenet_mini.compute_layers()[0]
        layer = squeezenet_mini.layer(name)
        old_weights, old_bias = layer.weights, layer.bias
        computer = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                 squeezenet_calibration)
        program = compile_program(
            squeezenet_mini, matched_plan(squeezenet_mini,
                                          UNIFORM_QUINT8),
            squeezenet_calibration)
        before = self._single_conv(squeezenet_mini, computer,
                                   single_input, name)
        try:
            layer.set_weights(old_weights * 2.0, old_bias * 2.0)
            after = self._single_conv(squeezenet_mini, computer,
                                      single_input, name)
            fresh = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                  squeezenet_calibration)
            expected = self._single_conv(squeezenet_mini, fresh,
                                         single_input, name)
            assert_identical(after, expected)
            assert before.data.tobytes() != after.data.tobytes()
            assert program.is_stale(squeezenet_mini)
        finally:
            layer.set_weights(old_weights, old_bias)

    def test_inplace_mutation_is_seen(self, squeezenet_mini,
                                      squeezenet_calibration,
                                      single_input):
        """In-place mutation of the same weight array needs no call on
        the interpreter: its next inference reads the new values."""
        name = squeezenet_mini.compute_layers()[0]
        layer = squeezenet_mini.layer(name)
        computer = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                 squeezenet_calibration)
        before = self._single_conv(squeezenet_mini, computer,
                                   single_input, name)
        saved = layer.weights.copy()
        try:
            layer.weights *= 2.0
            after = self._single_conv(squeezenet_mini, computer,
                                      single_input, name)
            fresh = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                  squeezenet_calibration)
            expected = self._single_conv(squeezenet_mini, fresh,
                                         single_input, name)
            assert_identical(after, expected)
            assert before.data.tobytes() != after.data.tobytes()
        finally:
            layer.weights[...] = saved


class TestExecutorMemo:
    """Functional runs through the executor repeat exactly; the
    accepted ``op_caches`` flag changes nothing."""

    def test_functional_outputs_identical(self, squeezenet_mini,
                                          squeezenet_calibration,
                                          single_input, soc):
        from repro.runtime.baselines import single_processor_plan
        plan = single_processor_plan(squeezenet_mini, "cpu",
                                     UNIFORM_QUINT8)
        default = Executor(soc)
        flagged = Executor(soc, op_caches=False)
        for _ in range(2):
            a = default.run(squeezenet_mini, plan, x=single_input,
                            calibration=squeezenet_calibration)
            b = flagged.run(squeezenet_mini, plan, x=single_input,
                            calibration=squeezenet_calibration)
            assert_all_identical(a.outputs, b.outputs)
