"""Lifecycle of compiled programs: caching, invalidation, PV012.

A compiled program lowers one specific plan over one specific set of
weight arrays; these tests pin the discipline that keeps it honest:
programs live and die with their plan in the :class:`PlanCache`,
``set_weights`` makes cached programs stale (identity-validated
lookups miss and recompile), and the PV012 verification rule proves a
program consistent with the plan it claims to implement.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.analysis import verify_program
from repro.compile import compile_program
from repro.errors import ReproError
from repro.runtime import MuLayer, UNIFORM_F32
from repro.runtime.baselines import single_processor_plan
from repro.runtime.plan_cache import PlanCache, PlanKey
from repro.soc import EXYNOS_7420


def _key(name="m", batch=1):
    return PlanKey(model=name, soc="exynos7420", mechanism="mulayer",
                   policy="pfq", batch=batch)


def _plan(graph):
    return single_processor_plan(graph, "cpu", UNIFORM_F32)


class TestPlanCachePrograms:
    def test_program_cached_next_to_plan(self, vgg_mini):
        cache = PlanCache()
        plan = _plan(vgg_mini)
        program = compile_program(vgg_mini, plan)
        cache.put(_key(), plan)
        cache.put_program(_key(), 1, program)
        assert cache.program_count() == 1
        assert cache.get_program(_key(), 1, graph=vgg_mini) is program
        assert cache.program_hits == 1

    def test_put_program_requires_plan(self, vgg_mini):
        cache = PlanCache()
        program = compile_program(vgg_mini, _plan(vgg_mini))
        with pytest.raises(KeyError):
            cache.put_program(_key(), 1, program)

    def test_replacing_plan_drops_its_programs(self, vgg_mini):
        cache = PlanCache()
        plan = _plan(vgg_mini)
        cache.put(_key(), plan)
        cache.put_program(_key(), 1, compile_program(vgg_mini, plan))
        cache.put(_key(), dataclasses.replace(plan))
        assert cache.program_count() == 0
        assert cache.program_evictions == 1
        assert cache.get_program(_key(), 1) is None

    def test_lru_eviction_drops_programs(self, vgg_mini):
        cache = PlanCache(max_entries=1)
        plan = _plan(vgg_mini)
        cache.put(_key("a"), plan)
        cache.put_program(_key("a"), 1,
                          compile_program(vgg_mini, plan))
        cache.put(_key("b"), dataclasses.replace(plan))
        assert _key("a") not in cache
        assert cache.program_count() == 0

    def test_set_weights_invalidates_cached_program(self, rng):
        """New weight arrays make the cached program stale: the
        identity-validated lookup misses, and the runtime recompiles
        against the new arrays."""
        from repro.models import build_model

        graph = build_model("vgg_mini")
        runtime = MuLayer(EXYNOS_7420, UNIFORM_F32)
        first = runtime.program(graph)
        assert runtime.program(graph) is first   # cached

        name = next(n for n in graph.compute_layers()
                    if graph.layer(n).weights is not None)
        layer = graph.layer(name)
        layer.set_weights(layer.weights.copy(), layer.bias.copy())
        assert first.is_stale(graph)
        misses_before = runtime.plan_cache.program_misses
        second = runtime.program(graph)
        assert second is not first
        assert runtime.plan_cache.program_misses == misses_before + 1
        assert not second.is_stale(graph)

        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        out = graph.output_layers()[0]
        compiled = runtime.run(graph, x, compiled=True)
        functional = runtime.run(graph, x, compiled=False)
        assert (compiled.outputs[out].data.tobytes()
                == functional.outputs[out].data.tobytes())


class TestPlanCacheConcurrency:
    def test_no_torn_plan_program_pairs_under_hammer(self):
        """N threads hammer put/get/evict/set_weights on one cache.

        Each key has exactly one (plan, program) pair ever created and
        only matching pairs are stored, so any lookup observing a
        foreign plan, a foreign program, or a program whose ``plan``
        is not its key's plan has caught a torn pair.  A small LRU
        bound keeps evictions constant, and a mutator thread swaps
        weight arrays so identity validation races the lookups too.
        """
        from repro.models import build_model

        graph = build_model("vgg_mini")
        cache = PlanCache(max_entries=4)
        keys = [_key(f"m{i}") for i in range(8)]
        pairs = {}
        for key in keys:
            kplan = dataclasses.replace(_plan(graph))
            pairs[key] = (kplan, compile_program(graph, kplan))
        errors = []
        stop = threading.Event()

        def writer(stripe):
            for _ in range(150):
                for key in keys[stripe::2]:
                    kplan, program = pairs[key]
                    cache.put(key, kplan)
                    try:
                        cache.put_program(key, 1, program)
                    except KeyError:
                        pass   # plan evicted between the two puts

        def reader():
            while not stop.is_set():
                for key in keys:
                    kplan, program = pairs[key]
                    got_plan = cache.get(key)
                    got_program = cache.get_program(key, 1,
                                                    graph=graph)
                    if got_plan is not None and got_plan is not kplan:
                        errors.append((key, "foreign plan"))
                    if got_program is None:
                        continue
                    if got_program is not program:
                        errors.append((key, "foreign program"))
                    elif got_program.plan is not kplan:
                        errors.append((key, "torn plan/program pair"))

        def mutator():
            name = next(n for n in graph.compute_layers()
                        if graph.layer(n).weights is not None)
            layer = graph.layer(name)
            for _ in range(50):
                layer.set_weights(layer.weights.copy(),
                                  layer.bias.copy())

        writers = [threading.Thread(target=writer, args=(stripe,))
                   for stripe in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        swapper = threading.Thread(target=mutator)
        for thread in writers + readers + [swapper]:
            thread.start()
        for thread in writers + [swapper]:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors, errors[:5]
        # Quiescent structural invariant: a cached program never
        # outlives its plan -- wherever a program is still cached, its
        # key's plan must be the matching one.
        for key in keys:
            if cache.get_program(key, 1) is not None:
                assert cache.get(key) is pairs[key][0]


class TestOperandCacheWeightRaces:
    def test_set_weights_races_parallel_execution(self, rng):
        """``set_weights`` storms while a compiled program
        runs on one thread and a cached functional computer keeps
        inferring on another.

        Three guarantees under the race, same shape as the PlanCache
        hammer above:

        * the program compiled against the old arrays keeps
          producing byte-identical outputs mid-storm (lowering baked
          its own operand copies; surgery on the graph cannot tear an
          in-flight program);
        * the :class:`OperandCache` inside the functional computer
          never serves a torn entry -- identity validation rebuilds
          packed operands whenever the source array changed, so every
          functional output matches one of the weight generations that
          existed when it ran;
        * at quiescence the runtime recompiles (the cached program
          went stale) and the new program is byte-identical to a
          fresh functional run over the final weights.
        """
        from repro.models import build_model
        from repro.nn import calibrate_graph
        from repro.runtime import PROCESSOR_FRIENDLY
        from repro.runtime.compute import LayerComputer

        graph = build_model("vgg_mini")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        calibration = calibrate_graph(graph, [x])
        out = graph.output_layers()[0]

        runtime = MuLayer(EXYNOS_7420)
        old_program = runtime.program(graph, calibration=calibration)
        old_bytes = old_program.run(x, keep="outputs")[out].data \
            .tobytes()

        computer = LayerComputer(graph, PROCESSOR_FRIENDLY,
                                 calibration, enable_caches=True)

        def functional(comp):
            comp.begin_inference()
            input_name = graph.input_layers()[0]
            values = {input_name: comp.input_tensor(input_name, x)}
            for name in graph.compute_layers():
                inputs = [values[p] for p in graph.inputs_of(name)]
                values[name] = comp.run_full(name, inputs, "cpu")
            return values[out].data.tobytes()

        # Distinct weight generations with distinct expected outputs:
        # the racing functional thread must only ever produce one of
        # them (the run reads each layer's weight array once, and the
        # operand caches validate against that exact object).
        target = next(n for n in graph.compute_layers()
                      if graph.layer(n).weights is not None)
        layer = graph.layer(target)
        base_weights, base_bias = layer.weights, layer.bias
        arrays = []
        expected = set()
        for index in range(4):
            weights = base_weights * (1.0 + 0.05 * index)
            layer.set_weights(weights, base_bias.copy())
            arrays.append(weights)
            fresh = LayerComputer(graph, PROCESSOR_FRIENDLY,
                                  calibration, enable_caches=False)
            expected.add(functional(fresh))
        assert len(expected) == len(arrays)   # generations differ

        errors = []
        stop = threading.Event()
        progress = [0, 0]

        def compiled_runner():
            while not stop.is_set():
                got = old_program.run(x, keep="outputs")[out]
                progress[0] += 1
                if got.data.tobytes() != old_bytes:
                    errors.append("compiled program output moved "
                                  "under weight surgery")
                    return

        def functional_runner():
            while not stop.is_set():
                seen = functional(computer)
                progress[1] += 1
                if seen not in expected:
                    errors.append("functional output matches no "
                                  "weight generation (torn operand "
                                  "cache entry)")
                    return

        def mutator():
            # Keep swapping until both runners raced at least a few
            # full iterations against live surgery (bounded so a
            # wedged runner cannot hang the test).
            swaps = 0
            while (min(progress) < 3 and swaps < 200_000
                   and not errors):
                layer.set_weights(arrays[swaps % len(arrays)],
                                  base_bias.copy())
                swaps += 1

        threads = [threading.Thread(target=compiled_runner),
                   threading.Thread(target=functional_runner)]
        swapper = threading.Thread(target=mutator)
        for thread in threads:
            thread.start()
        swapper.start()
        swapper.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        assert min(progress) >= 1   # both runners actually raced

        # Quiescence: the cached program is stale, the runtime
        # recompiles, and its bytes equal a fresh functional run
        # over the final weights.
        assert old_program.is_stale(graph)
        new_program = runtime.program(graph, calibration=calibration)
        assert new_program is not old_program
        fresh = LayerComputer(graph, PROCESSOR_FRIENDLY, calibration,
                              enable_caches=False)
        assert (new_program.run(x, keep="outputs")[out].data.tobytes()
                == functional(fresh))

        # The racing computer's caches actually validated identity:
        # packing across swapped generations shows up as misses on
        # the weight-side cache, never as a silently served stale
        # entry.
        stats = computer.cache_stats()
        assert stats["packed"]["misses"] >= 1
        assert stats["packed"]["hits"] >= 1


class TestStepFaults:
    @pytest.mark.parametrize("keep", ["all", "outputs"])
    def test_failing_step_names_its_layer(self, vgg_mini, keep):
        """A step that raises surfaces as an error naming the step
        index, layer, and kind, with the original chained as cause."""
        program = compile_program(vgg_mini, _plan(vgg_mini))
        index = len(program.steps) // 2
        victim = program.steps[index]

        def broken(inputs):
            raise ValueError("injected kernel fault")

        program.steps = (program.steps[:index]
                         + (dataclasses.replace(victim, fn=broken),)
                         + program.steps[index + 1:])
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        with pytest.raises(ReproError) as excinfo:
            program.run(x, keep=keep)
        message = str(excinfo.value)
        assert f"step {index}" in message
        assert repr(victim.layer) in message
        assert victim.kind in message
        assert "injected kernel fault" in message
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestVerifyProgramPV012:
    def test_clean_program_passes(self, vgg_mini):
        plan = _plan(vgg_mini)
        program = compile_program(vgg_mini, plan)
        report = verify_program(vgg_mini, plan, program)
        assert report.ok, report.render()

    def test_wrong_plan_object_is_flagged(self, vgg_mini):
        plan = _plan(vgg_mini)
        program = compile_program(vgg_mini, plan)
        report = verify_program(vgg_mini, dataclasses.replace(plan),
                                program)
        assert not report.ok
        assert any(d.rule == "PV012" for d in report.diagnostics)

    def test_stale_weights_are_flagged(self, rng):
        from repro.models import build_model

        graph = build_model("vgg_mini")
        plan = _plan(graph)
        program = compile_program(graph, plan)
        name = next(n for n in graph.compute_layers()
                    if graph.layer(n).weights is not None)
        layer = graph.layer(name)
        layer.set_weights(layer.weights.copy(), layer.bias.copy())
        report = verify_program(graph, plan, program)
        assert not report.ok
        assert any(d.rule == "PV012" for d in report.diagnostics)
