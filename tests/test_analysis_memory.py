"""Static memory/liveness analysis: footprints, MF rules, arenas."""

import dataclasses

import pytest

from repro.analysis import (ArenaLayout, BufferInterval,
                            MemoryFootprintAnalyzer, build_arena,
                            build_plan, verify_mechanism)
from repro.models import MINI_MODELS, build_model
from repro.soc import SOCS, soc_by_name


def _shrunk(soc, capacity_mb):
    return dataclasses.replace(
        soc, memory=dataclasses.replace(soc.memory,
                                        capacity_mb=capacity_mb))


@pytest.fixture(scope="module")
def soc():
    return soc_by_name("exynos7420")


@pytest.fixture(scope="module")
def vgg_graph():
    return build_model("vgg_mini", with_weights=False)


@pytest.fixture(scope="module")
def vgg_plan(soc, vgg_graph):
    return build_plan(soc, vgg_graph, "mulayer")


class TestLiveness:
    def test_every_layer_gets_an_interval(self, soc, vgg_graph,
                                          vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        intervals = analyzer.activation_intervals(vgg_graph, vgg_plan)
        assert {i.name for i in intervals} == set(
            vgg_graph.topological_order())

    def test_intervals_respect_topological_order(self, soc, vgg_graph,
                                                 vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        for interval in analyzer.activation_intervals(vgg_graph,
                                                      vgg_plan):
            assert interval.start <= interval.end
            assert interval.nbytes > 0

    def test_network_output_lives_to_the_end(self, soc, vgg_graph,
                                             vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        order = vgg_graph.topological_order()
        intervals = {i.name: i
                     for i in analyzer.activation_intervals(vgg_graph,
                                                            vgg_plan)}
        assert intervals[order[-1]].end == len(order) - 1

    def test_batch_scales_activations_not_weights(self, soc, vgg_graph,
                                                  vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        one = analyzer.footprint(vgg_graph, vgg_plan, batch=1)
        eight = analyzer.footprint(vgg_graph, vgg_plan, batch=8)
        assert eight.activation_peak_bytes == (
            8 * one.activation_peak_bytes)
        assert eight.weight_bytes == one.weight_bytes
        assert eight.packed_bytes == one.packed_bytes

    def test_rejects_non_positive_batch(self, soc, vgg_graph,
                                        vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        with pytest.raises(ValueError):
            analyzer.footprint(vgg_graph, vgg_plan, batch=0)


class TestFootprintRules:
    def test_zoo_is_clean_at_batch_one(self):
        for soc_name, soc in sorted(SOCS.items()):
            analyzer = MemoryFootprintAnalyzer(soc)
            for model in MINI_MODELS:
                graph = build_model(model, with_weights=False)
                for mechanism in ("mulayer", "cpu", "gpu"):
                    plan = build_plan(soc, graph, mechanism)
                    report = analyzer.analyze(graph, plan)
                    assert report.clean, (
                        f"{model}/{soc_name}/{mechanism}:\n"
                        f"{report.render()}")

    def test_mf001_fires_when_capacity_exceeded(self, soc, vgg_graph,
                                                vgg_plan):
        tiny = _shrunk(soc, capacity_mb=0.05)
        report = MemoryFootprintAnalyzer(tiny).analyze(vgg_graph,
                                                       vgg_plan)
        assert "MF001" in report.rules_fired()
        assert not report.ok

    def test_mf002_fires_on_oversized_single_buffer(self, soc,
                                                    vgg_graph,
                                                    vgg_plan):
        tiny = _shrunk(soc, capacity_mb=0.01)
        report = MemoryFootprintAnalyzer(tiny).analyze(vgg_graph,
                                                       vgg_plan)
        assert "MF002" in report.rules_fired()

    def test_mf003_warns_above_watermark(self, soc, vgg_graph,
                                         vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        peak = analyzer.footprint(vgg_graph, vgg_plan).peak_bytes
        # Capacity just above the peak: under it, but over 75% of it.
        snug = _shrunk(soc, capacity_mb=1.05 * peak / 1e6)
        report = MemoryFootprintAnalyzer(snug).analyze(vgg_graph,
                                                       vgg_plan)
        assert "MF003" in report.rules_fired()
        assert report.ok    # a warning, not an error

    def test_mf005_warns_on_dominant_packed_cache(self, soc, vgg_graph,
                                                  vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        packed = analyzer.footprint(vgg_graph, vgg_plan).packed_bytes
        snug = _shrunk(soc, capacity_mb=2.0 * packed / 1e6)
        report = MemoryFootprintAnalyzer(snug).analyze(vgg_graph,
                                                       vgg_plan)
        assert "MF005" in report.rules_fired()

    def test_verify_mechanism_memory_flag(self, soc, vgg_graph):
        clean = verify_mechanism(soc, vgg_graph, "mulayer",
                                 memory=True)
        assert clean.clean
        tiny = _shrunk(soc, capacity_mb=0.05)
        dirty = verify_mechanism(tiny, vgg_graph, "mulayer",
                                 memory=True)
        assert "MF001" in dirty.rules_fired()



class TestTransients:
    @pytest.mark.parametrize("policy_name, batch, expected", [
        # Integer depthwise builds no im2col columns: the padded int32
        # input (4 x 8 x 8 x 4 B = 1024 B), plus per output element
        # (4 x 6 x 6 = 144) an int32 accumulator, an int32 tap product
        # and the int64 requantize scratch (16 B each, 2304 B).
        ("UNIFORM_QUINT8", 1, 1024 + 2304),
        ("UNIFORM_QUINT8", 2, 2 * (1024 + 2304)),
        # Float depthwise keeps its f32 im2col columns: 4 channels x
        # 9 taps x 36 output pixels.
        ("UNIFORM_F32", 1, 4 * 9 * 36 * 4),
    ])
    def test_depthwise_transient_bytes(self, soc, policy_name, batch,
                                       expected):
        from repro import runtime
        from repro.nn import Graph
        from repro.nn.layers import DepthwiseConv2D, Input
        from repro.runtime.baselines import single_processor_plan
        graph = Graph("dw")
        graph.add(Input("in", (1, 4, 6, 6)))
        graph.add(DepthwiseConv2D("dw", 4, 3, padding=1), ["in"])
        plan = single_processor_plan(graph, "cpu",
                                     getattr(runtime, policy_name))
        summary = MemoryFootprintAnalyzer(soc).footprint(graph, plan,
                                                         batch=batch)
        assert summary.transient_peak_bytes == expected


class TestArena:
    def test_zoo_arenas_validate_non_overlapping(self):
        for soc_name, soc in sorted(SOCS.items()):
            analyzer = MemoryFootprintAnalyzer(soc)
            for model in MINI_MODELS:
                graph = build_model(model, with_weights=False)
                for mechanism in ("mulayer", "cpu", "gpu"):
                    plan = build_plan(soc, graph, mechanism)
                    arena = analyzer.arena(graph, plan)
                    report = arena.validate()
                    assert report.clean, (
                        f"{model}/{soc_name}/{mechanism}:\n"
                        f"{report.render()}")

    def test_arena_no_larger_than_sum_no_smaller_than_peak(
            self, soc, vgg_graph, vgg_plan):
        analyzer = MemoryFootprintAnalyzer(soc)
        arena = analyzer.arena(vgg_graph, vgg_plan)
        total = sum(slot.nbytes for slot in arena.slots)
        assert arena.live_peak_bytes() <= arena.arena_bytes <= total

    def test_arena_reuses_bytes_across_disjoint_lifetimes(
            self, soc, vgg_plan):
        graph = build_model("vgg_mini", with_weights=False)
        analyzer = MemoryFootprintAnalyzer(soc)
        arena = analyzer.arena(graph, vgg_plan)
        # A sequential model's buffers die quickly; sharing must beat
        # a bump allocator by a comfortable margin.
        total = sum(slot.nbytes for slot in arena.slots)
        assert arena.arena_bytes < 0.8 * total

    def test_overlapping_slots_are_detected(self):
        slots = build_arena("g", 1, [
            BufferInterval("a", 100, 0, 2),
            BufferInterval("b", 100, 1, 3),
        ]).slots
        # Force an overlap by rebasing slot b onto slot a's offset.
        broken = ArenaLayout(
            graph_name="g", batch=1,
            slots=(slots[0],
                   dataclasses.replace(slots[1],
                                       offset=slots[0].offset)),
            arena_bytes=200)
        report = broken.validate()
        assert "MF006" in report.rules_fired()

    def test_undersized_arena_is_detected(self):
        layout = build_arena("g", 1, [BufferInterval("a", 100, 0, 1)])
        shrunk = dataclasses.replace(layout, arena_bytes=50)
        assert "MF006" in shrunk.validate().rules_fired()

    def test_slot_lookup(self):
        layout = build_arena("g", 1, [BufferInterval("a", 64, 0, 1)])
        assert layout.slot_of("a").nbytes == 64
        with pytest.raises(KeyError):
            layout.slot_of("missing")

    def test_to_dict_round_trips_by_eye(self, soc, vgg_graph,
                                        vgg_plan):
        arena = MemoryFootprintAnalyzer(soc).arena(vgg_graph, vgg_plan)
        payload = arena.to_dict()
        assert payload["arena_bytes"] == arena.arena_bytes
        assert len(payload["slots"]) == len(arena.slots)
