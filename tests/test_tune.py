"""Autotuning: tuner selection, cache round-trips, tuned identity.

The tuner's contract has three legs, each pinned here:

* **selection** -- the reference lowering is never rejected, byte
  divergence disqualifies a variant before any timing, approximate
  variants are tolerance-checked and only legal when offered as such;
* **cache** -- decisions round-trip through the on-disk
  :class:`~repro.tune.TuneCache` (write -> reload -> zero re-timing on
  an identical fingerprint) and self-invalidate when the version,
  runtime fingerprint, or offered candidate set changes;
* **programs** -- tuned :class:`CompiledProgram`s stay byte-identical
  to their untuned twins across models, policies, and batch sizes,
  and rule PV014 proves every baked variant legal for its step.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import verify_tuned_variants
from repro.compile import compile_program
from repro.nn import calibrate_graph
from repro.runtime import (PROCESSOR_FRIENDLY, UNIFORM_F16, UNIFORM_F32,
                           UNIFORM_QUINT8)
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.tune import (CACHE_VERSION, TuneCache, Tuner,
                        default_cache_path, runtime_fingerprint)

POLICIES = {
    "pfq": PROCESSOR_FRIENDLY,
    "quint8": UNIFORM_QUINT8,
    "f16": UNIFORM_F16,
    "f32": UNIFORM_F32,
}


def _split_plan(graph, policy):
    """0.5 CPU/GPU cooperative split on every splittable layer --
    the variant-rich configuration the bench harness times."""
    assignments = {}
    for name in graph.compute_layers():
        if graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, 0.5)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def _input(graph, rng, batch=1):
    shape = (batch,) + graph.infer_shapes()[graph.input_layers()[0]][1:]
    return rng.standard_normal(shape).astype(np.float32)


class TestTunerSelect:
    def _candidates(self, bias=0.0):
        ref = ("reference", lambda inputs: inputs[0] * 2.0)
        same = ("same", lambda inputs: inputs[0] + inputs[0])
        wrong = ("wrong", lambda inputs: inputs[0] * 2.0 + bias)
        return ref, same, wrong

    def test_single_candidate_short_circuits(self):
        tuner = Tuner()
        ref, _, _ = self._candidates()
        chosen = tuner.select("sig", [ref],
                              lambda: np.ones(4, dtype=np.float32))
        assert chosen == "reference"
        assert tuner.timed == 0
        # The cache was never consulted: a one-candidate step has
        # nothing to decide, so it must not pollute the store.
        assert tuner.cache.stats()["records"] == 0
        assert tuner.cache.stats()["misses"] == 0

    def test_byte_divergence_disqualifies_before_timing(self):
        tuner = Tuner(repeats=1)
        ref, _, wrong = self._candidates(bias=1e-6)
        chosen = tuner.select("sig", [ref, wrong],
                              lambda: np.ones(4, dtype=np.float32))
        assert chosen == "reference"
        records = tuner.cache.records()
        assert records["sig"]["variant"] == "reference"
        # The divergent candidate never made it into the timing set.
        assert "wrong" not in records["sig"].get("ms", {})

    def test_identical_variant_is_eligible(self):
        tuner = Tuner(repeats=1)
        ref, same, _ = self._candidates()
        chosen = tuner.select("sig", [ref, same],
                              lambda: np.ones(4, dtype=np.float32))
        assert chosen in ("reference", "same")
        assert tuner.timed == 1
        assert set(tuner.cache.records()["sig"]["ms"]) == {
            "reference", "same"}

    def test_approx_variant_tolerance_checked(self):
        tuner = Tuner(repeats=1, allow_approx=True)
        ref, _, close = self._candidates(bias=1e-6)
        chosen = tuner.select("sig", [ref, close],
                              lambda: np.ones(4, dtype=np.float32),
                              approx=frozenset({"wrong"}))
        # Within tolerance: the approximate candidate survives into
        # timing instead of being discarded on the changed bytes.
        assert set(tuner.cache.records()["sig"]["ms"]) == {
            "reference", "wrong"}
        assert chosen in ("reference", "wrong")

    def test_approx_beyond_tolerance_is_discarded(self):
        tuner = Tuner(repeats=1, allow_approx=True)
        ref, _, far = self._candidates(bias=1.0)
        chosen = tuner.select("sig", [ref, far],
                              lambda: np.ones(4, dtype=np.float32),
                              approx=frozenset({"wrong"}))
        assert chosen == "reference"

    def test_duplicate_names_rejected(self):
        tuner = Tuner()
        ref, _, _ = self._candidates()
        with pytest.raises(ValueError):
            tuner.select("sig", [ref, ref],
                         lambda: np.ones(4, dtype=np.float32))


class TestTuneCache:
    def test_default_path_under_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_path() == (
            tmp_path / "repro-tune" / "cache.json")

    def test_round_trip_zero_retiming(self, tmp_path, squeezenet_mini,
                                      squeezenet_calibration, rng):
        """Write -> reload -> identical fingerprint means the second
        compile times nothing at all."""
        path = tmp_path / "tune.json"
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        first = Tuner(cache=TuneCache(path), repeats=1)
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration, tuner=first)
        assert first.timed > 0
        first.flush()
        assert path.exists()

        second = Tuner(cache=TuneCache(path), repeats=1)
        reloaded = compile_program(squeezenet_mini, plan,
                                   squeezenet_calibration, tuner=second)
        assert second.timed == 0
        assert second.cache.hits > 0
        assert ([s.variant for s in reloaded.steps]
                == [s.variant for s in program.steps])

    def test_fingerprint_mismatch_discards(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = TuneCache(path)
        cache.put("sig", "fast", ["reference", "fast"])
        cache.save()

        doc = json.loads(path.read_text())
        doc["fingerprint"]["numpy"] = "0.0.0"
        path.write_text(json.dumps(doc))
        stale = TuneCache(path)
        assert len(stale) == 0
        assert stale.invalidated == 1
        assert stale.get("sig", ["reference", "fast"]) is None

    def test_version_mismatch_discards(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = TuneCache(path)
        cache.put("sig", "fast", ["reference", "fast"])
        cache.save()

        doc = json.loads(path.read_text())
        assert doc["version"] == CACHE_VERSION
        doc["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(doc))
        stale = TuneCache(path)
        assert len(stale) == 0
        assert stale.invalidated == 1

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text("{not json")
        cache = TuneCache(path)
        assert len(cache) == 0

    def test_candidate_set_change_retunes(self):
        cache = TuneCache()
        cache.put("sig", "fast", ["fast", "reference"])
        assert cache.get("sig", ["reference", "fast"]) == "fast"
        # A new variant landed (or --allow-approx toggled): the stored
        # decision no longer covers the offered set.
        assert cache.get("sig", ["reference", "fast", "new"]) is None
        assert cache.stats() == {"records": 1, "hits": 1, "misses": 1,
                                 "invalidated": 0}

    def test_memory_cache_save_noop(self):
        cache = TuneCache()
        cache.put("sig", "fast", ["fast", "reference"])
        cache.save()   # must not raise, must not write anywhere
        assert cache.path is None

    def test_fingerprint_fields(self):
        fingerprint = runtime_fingerprint()
        assert fingerprint["numpy"] == np.__version__
        assert set(fingerprint) == {"numpy", "blas", "machine",
                                    "processor", "python"}


class TestTunedPrograms:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_tuned_byte_identical_squeezenet(self, policy_name,
                                             squeezenet_mini,
                                             squeezenet_calibration,
                                             rng):
        policy = POLICIES[policy_name]
        plan = _split_plan(squeezenet_mini, policy)
        x = _input(squeezenet_mini, rng)
        baseline = compile_program(squeezenet_mini, plan,
                                   squeezenet_calibration)
        tuned = compile_program(squeezenet_mini, plan,
                                squeezenet_calibration,
                                tuner=Tuner(repeats=1))
        assert tuned.tuned and not baseline.tuned
        out = squeezenet_mini.output_layers()[0]
        expected = baseline.run(x, keep="outputs")[out].data.tobytes()
        got = tuned.run(x, keep="outputs")[out].data.tobytes()
        assert got == expected

    @pytest.mark.parametrize("model_fixture",
                             ["vgg_mini", "mobilenet_mini"])
    def test_tuned_byte_identical_pfq(self, model_fixture, rng,
                                      request):
        graph = request.getfixturevalue(model_fixture)
        calibration = request.getfixturevalue(
            f"{model_fixture}_calibration")
        plan = _split_plan(graph, PROCESSOR_FRIENDLY)
        x = _input(graph, rng)
        baseline = compile_program(graph, plan, calibration)
        tuned = compile_program(graph, plan, calibration,
                                tuner=Tuner(repeats=1))
        out = graph.output_layers()[0]
        assert (tuned.run(x, keep="outputs")[out].data.tobytes()
                == baseline.run(x, keep="outputs")[out].data.tobytes())

    def test_tuned_byte_identical_batch4_folded(self, vgg_mini,
                                                vgg_mini_calibration,
                                                rng):
        """Batch > 1 puts the folded-vs-per-sample GEMM choice in
        play; whichever wins, bytes must not move."""
        plan = _split_plan(vgg_mini, UNIFORM_F32)
        x = _input(vgg_mini, rng, batch=4)
        baseline = compile_program(vgg_mini, plan, vgg_mini_calibration,
                                   batch=4)
        tuned = compile_program(vgg_mini, plan, vgg_mini_calibration,
                                batch=4, tuner=Tuner(repeats=1))
        out = vgg_mini.output_layers()[0]
        assert (tuned.run(x, keep="outputs")[out].data.tobytes()
                == baseline.run(x, keep="outputs")[out].data.tobytes())

    def test_mobilenet_offers_depthwise_variant(self, mobilenet_mini,
                                                mobilenet_mini_calibration):
        """The depthwise mat-vec lowering is actually offered (and
        timed) on a depthwise model -- the tuner's records prove the
        candidate reached the timing stage."""
        tuner = Tuner(repeats=1)
        plan = _split_plan(mobilenet_mini, PROCESSOR_FRIENDLY)
        compile_program(mobilenet_mini, plan,
                        mobilenet_mini_calibration, tuner=tuner)
        offered = set()
        for record in tuner.cache.records().values():
            offered.update(record["candidates"])
        assert "matvec" in offered
        assert "direct1x1" in offered

    def test_winograd_requires_allow_approx(self, vgg_mini,
                                            vgg_mini_calibration, rng):
        plan = _split_plan(vgg_mini, UNIFORM_F32)
        strict = Tuner(repeats=1)
        compile_program(vgg_mini, plan, vgg_mini_calibration,
                        tuner=strict)
        for record in strict.cache.records().values():
            assert "winograd" not in record["candidates"]

        approx = Tuner(repeats=1, allow_approx=True)
        program = compile_program(vgg_mini, plan, vgg_mini_calibration,
                                  tuner=approx)
        offered = set()
        for record in approx.cache.records().values():
            offered.update(record["candidates"])
        assert "winograd" in offered
        assert program.allow_approx
        # Whatever won, outputs stay within the tuner's tolerance of
        # the untuned reference.
        baseline = compile_program(vgg_mini, plan,
                                   vgg_mini_calibration)
        x = _input(vgg_mini, rng)
        out = vgg_mini.output_layers()[0]
        expected = baseline.run(x, keep="outputs")[out].data
        got = program.run(x, keep="outputs")[out].data
        assert np.allclose(got.astype(np.float64),
                           expected.astype(np.float64),
                           rtol=1e-3, atol=1e-4)

    def test_describe_reports_variants(self, squeezenet_mini,
                                       squeezenet_calibration):
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        tuned = compile_program(squeezenet_mini, plan,
                                squeezenet_calibration,
                                tuner=Tuner(repeats=1))
        info = tuned.describe()
        assert info["tuned"] is True
        assert info["variants"] == tuned.variant_histogram()
        assert all("variant" in step for step in info["steps"])
        assert sum(info["variants"].values()) == len(tuned.steps)


class TestVerifyTunedVariantsPV014:
    def _tuned(self, graph, calibration,
               policy=PROCESSOR_FRIENDLY):
        plan = _split_plan(graph, policy)
        return plan, compile_program(graph, plan, calibration,
                                     tuner=Tuner(repeats=1))

    def test_clean_tuned_program_passes(self, squeezenet_mini,
                                        squeezenet_calibration):
        plan, program = self._tuned(squeezenet_mini,
                                    squeezenet_calibration)
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert report.ok, report.render()

    def test_untuned_program_passes(self, squeezenet_mini,
                                    squeezenet_calibration):
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration)
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert report.ok, report.render()

    def test_illegal_variant_geometry_flagged(self, squeezenet_mini,
                                              squeezenet_calibration):
        """direct1x1 stamped onto a 3x3 conv is a lie the static rule
        must catch."""
        plan, program = self._tuned(squeezenet_mini,
                                    squeezenet_calibration)
        index, step = next(
            (i, s) for i, s in enumerate(program.steps)
            if s.kind == "conv"
            and getattr(squeezenet_mini.layer(s.layer), "kernel", 1)
            != 1)
        program.steps = list(program.steps)
        program.steps[index] = dataclasses.replace(
            step, variant="direct1x1")
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert not report.ok
        assert any(d.rule == "PV014" for d in report.diagnostics)

    def test_unknown_variant_flagged(self, squeezenet_mini,
                                     squeezenet_calibration):
        plan, program = self._tuned(squeezenet_mini,
                                    squeezenet_calibration)
        program.steps = list(program.steps)
        program.steps[0] = dataclasses.replace(
            program.steps[0], variant="warp_speed")
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert any(d.rule == "PV014" and "warp_speed" in d.message
                   for d in report.diagnostics)

    def test_retired_pool_variant_flagged_unknown(
            self, vgg_mini, vgg_mini_calibration):
        """Max pooling has one kernel and no tunable alternatives; a
        max-pool step claiming the retired shifted-view variant is an
        unknown variant."""
        plan, program = self._tuned(vgg_mini, vgg_mini_calibration)
        index, step = next((i, s) for i, s in enumerate(program.steps)
                           if s.kind == "max_pool")
        program.steps = list(program.steps)
        program.steps[index] = dataclasses.replace(
            step, variant="pool_shifted")
        report = verify_tuned_variants(vgg_mini, plan, program)
        assert any(d.rule == "PV014"
                   and "unknown kernel variant 'pool_shifted'" in d.message
                   for d in report.diagnostics)

    def test_nonreference_variant_in_untuned_program_flagged(
            self, squeezenet_mini, squeezenet_calibration):
        plan = _split_plan(squeezenet_mini, PROCESSOR_FRIENDLY)
        program = compile_program(squeezenet_mini, plan,
                                  squeezenet_calibration)
        index, step = next(
            (i, s) for i, s in enumerate(program.steps)
            if s.kind == "conv"
            and getattr(squeezenet_mini.layer(s.layer), "kernel", 0)
            == 1)
        program.steps = list(program.steps)
        program.steps[index] = dataclasses.replace(
            step, variant="direct1x1")
        report = verify_tuned_variants(squeezenet_mini, plan, program)
        assert not report.ok
        assert any(d.rule == "PV014" for d in report.diagnostics)

    def test_winograd_without_allow_approx_flagged(
            self, vgg_mini, vgg_mini_calibration):
        plan = _split_plan(vgg_mini, UNIFORM_F32)
        program = compile_program(vgg_mini, plan, vgg_mini_calibration,
                                  tuner=Tuner(repeats=1))
        assert not program.allow_approx
        index, step = next(
            (i, s) for i, s in enumerate(program.steps)
            if s.kind == "conv"
            and getattr(vgg_mini.layer(s.layer), "kernel", 0) == 3)
        program.steps = list(program.steps)
        program.steps[index] = dataclasses.replace(
            step, variant="winograd")
        report = verify_tuned_variants(vgg_mini, plan, program)
        assert not report.ok
        assert any(d.rule == "PV014" for d in report.diagnostics)


class TestExecutorIntegration:
    def test_mulayer_tuner_produces_tuned_cached_program(self, rng):
        from repro.models import build_model
        from repro.runtime import MuLayer
        from repro.soc import EXYNOS_7420

        graph = build_model("squeezenet_mini")
        x = _input(graph, rng)
        calibration = calibrate_graph(graph, [x])
        tuner = Tuner(repeats=1)
        runtime = MuLayer(EXYNOS_7420, compiled=True, tuner=tuner)
        plain = MuLayer(EXYNOS_7420, compiled=True)

        tuned_result = runtime.run(graph, x, calibration=calibration)
        plain_result = plain.run(graph, x, calibration=calibration)
        out = graph.output_layers()[0]
        assert (tuned_result.outputs[out].data.tobytes()
                == plain_result.outputs[out].data.tobytes())
        program = runtime.program(graph, calibration=calibration)
        assert program.tuned
        # Every non-reference variant baked into the program came out
        # of this tuner's select() calls.
        histogram = program.variant_histogram()
        chosen = {name: count for name, count in histogram.items()
                  if name != "reference"}
        assert chosen
        for name, count in chosen.items():
            assert tuner.selections.get(name, 0) >= count
