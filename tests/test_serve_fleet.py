"""Tests for the plan cache, the device model, and the fleet."""

import pytest

from repro.models import build_model
from repro.runtime import (MuLayer, PlanCache, PlanKey,
                           single_processor_plan, uniform_policy)
from repro.serve import (Device, Fleet, Request, default_slos,
                         plan_resources)
from repro.soc import EXYNOS_7420
from repro.tensor import DType


@pytest.fixture(scope="module")
def fleet():
    """Two exynos7420 devices sharing one plan cache."""
    return Fleet.build(("exynos7420",), 2)


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        key = PlanKey("vgg_mini", "exynos7420", "cpu", "quint8")
        graph = build_model("vgg_mini", with_weights=False)
        plan = single_processor_plan(graph, "cpu",
                                     uniform_policy(DType.QUINT8))
        assert cache.get(key) is None
        cache.put(key, plan)
        assert cache.get(key) is plan
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)
        assert key in cache and len(cache) == 1

    def test_get_or_build_builds_once(self):
        cache = PlanCache()
        key = PlanKey("vgg_mini", "exynos7420", "cpu", "quint8")
        graph = build_model("vgg_mini", with_weights=False)
        calls = []

        def builder():
            calls.append(1)
            return single_processor_plan(graph, "cpu",
                                         uniform_policy(DType.QUINT8))

        first = cache.get_or_build(key, builder)
        second = cache.get_or_build(key, builder)
        assert first is second
        assert len(calls) == 1

    def test_keys_distinct_per_mechanism_and_policy(self):
        base = dict(model="vgg_mini", soc="exynos7420")
        keys = {
            PlanKey(mechanism="mulayer", policy="pfq", **base),
            PlanKey(mechanism="cpu", policy="quint8", **base),
            PlanKey(mechanism="gpu", policy="f16", **base),
            PlanKey(mechanism="mulayer", policy="f32", **base),
        }
        assert len(keys) == 4

    def test_stats_dict(self):
        cache = PlanCache()
        cache.get(PlanKey("m", "s", "cpu", "p"))
        stats = cache.stats()
        assert stats == {"entries": 0.0, "hits": 0.0, "misses": 1.0,
                         "hit_rate": 0.0, "evictions": 0.0,
                         "program_entries": 0.0, "program_hits": 0.0,
                         "program_misses": 0.0,
                         "program_hit_rate": 0.0,
                         "program_evictions": 0.0}

    def test_cold_cache_hit_rate_zero(self):
        assert PlanCache().hit_rate == 0.0

    def test_bounded_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        keys = [PlanKey("m", "s", "cpu", f"p{i}") for i in range(3)]
        cache.put(keys[0], "plan0")
        cache.put(keys[1], "plan1")
        assert cache.get(keys[0]) == "plan0"  # refresh key 0
        cache.put(keys[2], "plan2")           # evicts key 1 (LRU)
        assert cache.evictions == 1 and len(cache) == 2
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == "plan0"
        assert cache.get(keys[2]) == "plan2"

    def test_unbounded_by_default(self):
        cache = PlanCache()
        for i in range(100):
            cache.put(PlanKey("m", "s", "cpu", f"p{i}"), i)
        assert len(cache) == 100 and cache.evictions == 0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_thread_safety(self):
        import threading
        cache = PlanCache(max_entries=16)
        errors = []

        def worker(seed):
            try:
                for i in range(200):
                    key = PlanKey("m", "s", "cpu", f"p{(seed + i) % 32}")
                    if cache.get(key) is None:
                        cache.put(key, f"plan-{key.policy}")
                    cache.stats()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        assert cache.hits + cache.misses == 4 * 200


class TestMuLayerCacheIntegration:
    def test_plan_memoized_through_cache(self):
        cache = PlanCache()
        runtime = MuLayer(EXYNOS_7420, plan_cache=cache)
        graph = build_model("vgg_mini", with_weights=False)
        first = runtime.plan(graph)
        second = runtime.plan(graph)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1
        key = PlanKey(model=graph.name, soc="exynos7420",
                      mechanism="mulayer",
                      policy=runtime.policy.name)
        assert key in cache


class TestDevice:
    def test_fresh_device_idle(self):
        device = Device.make("dev0:exynos7420", EXYNOS_7420)
        assert device.idle_now(("cpu", "gpu"), 0.0)
        assert device.backlog_s(0.0) == 0.0

    def test_occupy_advances_only_named_resources(self):
        device = Device.make("dev0:exynos7420", EXYNOS_7420)
        device.occupy(("cpu",), 0.0, 1.0)
        assert not device.idle_now(("cpu",), 0.5)
        assert device.idle_now(("gpu",), 0.5)
        assert not device.idle_now(("cpu", "gpu"), 0.5)
        assert device.earliest_start_s(("cpu", "gpu"), 0.5) == 1.0
        assert device.idle_now(("cpu",), 1.0)

    def test_busy_accounting_and_utilization(self):
        device = Device.make("dev0:exynos7420", EXYNOS_7420)
        device.occupy(("cpu",), 0.0, 1.0)
        device.occupy(("cpu", "gpu"), 1.0, 3.0)
        assert device.total_busy_s() == pytest.approx(5.0)
        assert device.completed == 2
        util = device.utilization(4.0)
        assert util["cpu"] == pytest.approx(0.75)
        assert util["gpu"] == pytest.approx(0.5)
        assert device.utilization(0.0)["cpu"] == 0.0

    def test_backlog_is_worst_resource(self):
        device = Device.make("dev0:exynos7420", EXYNOS_7420)
        device.occupy(("cpu",), 0.0, 2.0)
        device.occupy(("gpu",), 0.0, 5.0)
        assert device.backlog_s(1.0) == pytest.approx(4.0)


class TestWarmPlans:
    def test_serial_warm_fills_cache(self):
        fresh = Fleet.build(("exynos7420",), 1)
        built = fresh.warm_plans(("vgg_mini",))
        assert built == len(fresh.plan_cache) > 0
        # Second call finds everything cached and builds nothing.
        assert fresh.warm_plans(("vgg_mini",)) == 0

    def test_program_warm_once_per_soc_type_not_per_replica(self):
        """Six replicas of one SoC type warm each (model, mechanism,
        batch) program exactly once."""
        fresh = Fleet.build(("exynos7420",), 6, compiled=True)
        built = fresh.warm_plans(("vgg_mini",),
                                 mechanisms=("mulayer",),
                                 batches=(1, 2), programs=True)
        # 2 plans + 2 programs, regardless of the replica count.
        assert built == 4
        assert fresh.plan_cache.program_count() == 2
        context = fresh._contexts["exynos7420"]
        for batch in (1, 2):
            key = PlanKey(model="vgg_mini", soc="exynos7420",
                          mechanism="mulayer",
                          policy=context.policy_name("mulayer"),
                          batch=batch)
            program = fresh.plan_cache.get_program(key, batch)
            assert program is not None
            assert program.batch == batch
        # Warming again builds nothing: every plan and program hits.
        assert fresh.warm_plans(("vgg_mini",),
                                mechanisms=("mulayer",),
                                batches=(1, 2), programs=True) == 0

    def test_program_warm_once_per_soc_type_in_mixed_fleet(self):
        """A mixed fleet warms one program per SoC type: the two
        types plan (and so compile) the same model separately."""
        mixed = Fleet.build(("exynos7420", "exynos7880"), 2,
                            compiled=True)
        mixed.warm_plans(("squeezenet_mini",), mechanisms=("mulayer",),
                         programs=True)
        assert mixed.plan_cache.program_count() == 2

    def test_parallel_matches_serial(self):
        serial = Fleet.build(("exynos7420",), 1)
        parallel = Fleet.build(("exynos7420",), 1)
        mechanisms = ("cpu", "mulayer")
        assert serial.warm_plans(("vgg_mini",),
                                 mechanisms=mechanisms) == 2
        assert parallel.warm_plans(("vgg_mini",),
                                   mechanisms=mechanisms, jobs=2) == 2
        assert len(parallel.plan_cache) == len(serial.plan_cache) == 2
        context = serial._contexts["exynos7420"]
        for mechanism in mechanisms:
            key = PlanKey(model="vgg_mini", soc="exynos7420",
                          mechanism=mechanism,
                          policy=context.policy_name(mechanism))
            a = serial.plan_cache.get(key)
            b = parallel.plan_cache.get(key)
            assert a is not None and b is not None
            assert ({n: (m.placement, m.split)
                     for n, m in a.assignments.items()}
                    == {n: (m.placement, m.split)
                        for n, m in b.assignments.items()})


class TestFleet:
    def test_build_cycles_soc_types(self):
        mixed = Fleet.build(("exynos7420", "exynos7880"), 3)
        names = [d.soc.name for d in mixed.devices]
        assert names == ["exynos7420", "exynos7880", "exynos7420"]
        assert mixed.devices[0].device_id == "dev0:exynos7420"

    def test_unknown_device_raises(self, fleet):
        with pytest.raises(KeyError, match="nope"):
            fleet.device("nope")

    def test_plan_cache_keys_per_mechanism(self):
        fresh = Fleet.build(("exynos7420",), 1)
        device = fresh.devices[0]
        for mechanism in fresh.mechanisms(device):
            fresh.plan_for("vgg_mini", device, mechanism)
        assert len(fresh.plan_cache) == 3  # mulayer, cpu, gpu
        assert fresh.plan_cache.misses == 3
        fresh.plan_for("vgg_mini", device, "cpu")
        assert fresh.plan_cache.hits == 1

    def test_single_processor_plan_occupies_one_resource(self, fleet):
        device = fleet.devices[0]
        assert fleet.resources_for("vgg_mini", device, "cpu") == ("cpu",)
        assert fleet.resources_for("vgg_mini", device, "gpu") == ("gpu",)

    def test_plan_resources_from_placements(self, fleet):
        device = fleet.devices[0]
        plan = fleet.plan_for("vgg_mini", device, "mulayer")
        resources = plan_resources(plan, fleet.graph("vgg_mini"))
        assert resources == fleet.resources_for("vgg_mini", device,
                                                "mulayer")
        assert set(resources) <= set(EXYNOS_7420.resources())

    def test_estimates_positive_and_memoized(self, fleet):
        device = fleet.devices[0]
        first = fleet.estimate_service_s("vgg_mini", device, "mulayer")
        assert first > 0.0
        assert fleet.estimate_service_s("vgg_mini", device,
                                        "mulayer") == first

    def test_isolated_latency_and_capacity(self, fleet):
        latency = fleet.isolated_latency_s("vgg_mini")
        assert latency > 0.0
        capacity = fleet.capacity_rps(["vgg_mini"])
        assert capacity == pytest.approx(len(fleet.devices) / latency)

    def test_default_slos_scale_with_factor(self, fleet):
        tight = default_slos(fleet, ["vgg_mini"], slo_factor=2.0)
        loose = default_slos(fleet, ["vgg_mini"], slo_factor=4.0)
        assert loose["vgg_mini"] == pytest.approx(
            2.0 * tight["vgg_mini"])
        with pytest.raises(ValueError, match="slo_factor"):
            default_slos(fleet, ["vgg_mini"], slo_factor=0.0)

    def test_execute_advances_clocks(self):
        fresh = Fleet.build(("exynos7420",), 1)
        device = fresh.devices[0]
        request = Request(request_id=0, model="vgg_mini",
                          arrival_s=0.0, slo_s=10.0)
        completion = fresh.execute(request, device, "mulayer", 0.5)
        assert completion.start_s == 0.5
        assert completion.finish_s > 0.5
        assert completion.service_s == pytest.approx(
            completion.result.latency_s)
        assert completion.met_slo
        assert device.completed == 1
        resources = fresh.resources_for("vgg_mini", device, "mulayer")
        assert not device.idle_now(resources,
                                   completion.finish_s - 1e-6)
