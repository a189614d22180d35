"""Static memory and liveness analysis of execution plans (MF001-MF006).

Mobile SoCs hand the CPU, GPU, and NPU one shared LPDDR pool
(:class:`~repro.soc.memory.MemorySpec`), so a plan is only runnable if
the *sum* of everything resident at once -- weights per processor, the
persistent packed-operand cache, live activations, and the transient
im2col column matrices -- fits that pool.  The serving and benchmark
harnesses currently discover oversized configurations at simulation
time; this analyzer proves the property statically from the shapes the
:class:`~repro.analysis.plan_verifier.PlanVerifier` already checks.

The analysis walks the graph in topological order:

* every layer output is a buffer, live from its producing step to the
  step of its last consumer (outputs stay live to the end);
* weights and the packed-operand cache are resident for the whole
  execution, attributed per processor via the plan's channel shares
  and the policy's per-processor storage/compute dtypes;
* conv/depthwise layers additionally hold transient kernel buffers
  during their own step: the im2col column matrix (the functional
  executor's per-inference column cache), or -- for an integer
  depthwise part, which builds no columns -- the padded int32 input,
  the int32 accumulator and tap product, and the int64 requantize
  scratch of :func:`~repro.kernels.depthwise_conv_quint8`;
* everything activation-shaped scales with the batch; weights do not.

The same liveness intervals drive :func:`build_arena`: a first-fit
interval-graph offset assignment producing an :class:`ArenaLayout` the
future compiled/fused execution path can allocate directly -- two
buffers share bytes only if their lifetimes are disjoint, which
:meth:`ArenaLayout.validate` proves (rule MF006).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..nn import Graph
from ..nn.layer import LayerKind
from ..runtime.pfq import QuantizationPolicy
from ..runtime.plan import ExecutionPlan, LayerAssignment
from ..soc import SoCSpec
from ..tensor import DType
from .diagnostics import Report

#: Layer kinds whose step holds transient kernel buffers.
_TRANSIENT_KINDS = (LayerKind.CONV, LayerKind.DEPTHWISE_CONV)

#: Bytes per element of the integer depthwise kernel's buffers: the
#: padded input (int32) per input element; the accumulator (int32),
#: tap product (int32) and requantize scratch (int64) per output
#: element.
_DW_INT_PADDED_ITEMSIZE = 4
_DW_INT_OUTPUT_ITEMSIZE = 4 + 4 + 8


def _mb(nbytes: float) -> str:
    """Human-readable megabytes (1 MB = 10^6 bytes, as MemorySpec)."""
    return f"{nbytes / 1e6:.1f} MB"


@dataclasses.dataclass(frozen=True)
class BufferInterval:
    """One buffer with its liveness interval.

    Attributes:
        name: buffer identity (the producing layer's name).
        nbytes: size in bytes (batch-scaled).
        start: topological step index at which the buffer is written.
        end: last step index (inclusive) at which it is read.
    """

    name: str
    nbytes: int
    start: int
    end: int

    def overlaps(self, other: "BufferInterval") -> bool:
        """True when the two lifetimes share at least one step."""
        return self.start <= other.end and other.start <= self.end


@dataclasses.dataclass(frozen=True)
class ArenaSlot:
    """One buffer's assignment inside the arena.

    Attributes:
        buffer: the buffer's name.
        offset: byte offset inside the arena.
        nbytes: slot size in bytes.
        start / end: the buffer's liveness interval (step indices).
    """

    buffer: str
    offset: int
    nbytes: int
    start: int
    end: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form."""
        return {"buffer": self.buffer, "offset": self.offset,
                "nbytes": self.nbytes, "start": self.start,
                "end": self.end}


@dataclasses.dataclass(frozen=True)
class ArenaLayout:
    """A pre-planned activation arena for one plan.

    Attributes:
        graph_name: the graph the layout was planned for.
        batch: the batch size the buffer sizes assume.
        slots: one slot per activation buffer, in assignment order.
        arena_bytes: total arena size (max offset + size).
    """

    graph_name: str
    batch: int
    slots: Tuple[ArenaSlot, ...]
    arena_bytes: int

    def slot_of(self, buffer: str) -> ArenaSlot:
        """The slot assigned to ``buffer``.

        Raises:
            KeyError: when the buffer has no slot.
        """
        for slot in self.slots:
            if slot.buffer == buffer:
                return slot
        raise KeyError(f"no arena slot for buffer {buffer!r}")

    def live_peak_bytes(self) -> int:
        """Largest sum of live slot sizes over any step."""
        if not self.slots:
            return 0
        last = max(slot.end for slot in self.slots)
        peak = 0
        for step in range(last + 1):
            live = sum(slot.nbytes for slot in self.slots
                       if slot.start <= step <= slot.end)
            peak = max(peak, live)
        return peak

    def validate(self) -> Report:
        """Prove the layout sound (rule MF006).

        Two slots whose lifetimes overlap must occupy disjoint byte
        ranges, and the arena must be at least as large as the live-set
        peak (and as any single slot's extent).
        """
        report = Report()
        for i, a in enumerate(self.slots):
            if a.offset + a.nbytes > self.arena_bytes:
                report.error(
                    "MF006", a.buffer,
                    f"slot [{a.offset}, {a.offset + a.nbytes}) exceeds "
                    f"the arena ({self.arena_bytes} bytes)")
            for b in self.slots[i + 1:]:
                if not BufferInterval(a.buffer, a.nbytes, a.start,
                                      a.end).overlaps(
                        BufferInterval(b.buffer, b.nbytes, b.start,
                                       b.end)):
                    continue
                if (a.offset < b.offset + b.nbytes
                        and b.offset < a.offset + a.nbytes):
                    report.error(
                        "MF006", a.buffer,
                        f"slot overlaps {b.buffer!r} while both are "
                        f"live (steps [{max(a.start, b.start)}, "
                        f"{min(a.end, b.end)}])")
        if self.arena_bytes < self.live_peak_bytes():
            report.error(
                "MF006", self.graph_name,
                f"arena of {self.arena_bytes} bytes is smaller than "
                f"the live-set peak of {self.live_peak_bytes()} bytes")
        return report

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form the compiled path can consume."""
        return {"graph": self.graph_name, "batch": self.batch,
                "arena_bytes": self.arena_bytes,
                "slots": [slot.to_dict() for slot in self.slots]}


def activation_intervals(graph: Graph, plan: ExecutionPlan,
                         batch: int) -> List[BufferInterval]:
    """Liveness interval of every layer-output buffer.

    Sizes use the policy's activation storage dtype and scale with the
    batch; a buffer with no consumers (a network output) stays live
    through the final step.  Depends only on graph, policy, and batch
    -- no SoC -- so the compiled execution path plans its arena from
    the same intervals the :class:`MemoryFootprintAnalyzer` proves
    sound.
    """
    itemsize = plan.policy.activation_storage.itemsize
    shapes = graph.infer_shapes()
    order = graph.topological_order()
    index = {name: step for step, name in enumerate(order)}
    last = len(order) - 1
    intervals: List[BufferInterval] = []
    for name in order:
        shape = shapes[name]
        per_sample = 1
        for dim in shape[1:] if len(shape) > 1 else shape:
            per_sample *= int(dim)
        nbytes = per_sample * batch * itemsize
        consumers = graph.consumers_of(name)
        end = (max(index[c] for c in consumers) if consumers
               else last)
        intervals.append(BufferInterval(
            name=name, nbytes=nbytes, start=index[name], end=end))
    return intervals


def plan_arena(graph: Graph, plan: ExecutionPlan,
               batch: int) -> ArenaLayout:
    """The activation arena of one plan, from the static shapes."""
    return build_arena(graph.name, batch,
                       activation_intervals(graph, plan, batch))


def build_arena(graph_name: str, batch: int,
                intervals: List[BufferInterval]) -> ArenaLayout:
    """First-fit offset assignment over the buffer interval graph.

    Buffers are placed in order of their start step (largest first on
    ties, which packs the dominant buffer low); each takes the lowest
    offset whose byte range is free of every already placed,
    lifetime-overlapping slot.
    """
    slots: List[ArenaSlot] = []
    ordered = sorted(intervals,
                     key=lambda b: (b.start, -b.nbytes, b.name))
    for interval in ordered:
        taken = sorted(
            (slot for slot in slots
             if interval.overlaps(BufferInterval(
                 slot.buffer, slot.nbytes, slot.start, slot.end))),
            key=lambda slot: slot.offset)
        offset = 0
        for slot in taken:
            if offset + interval.nbytes <= slot.offset:
                break
            offset = max(offset, slot.offset + slot.nbytes)
        slots.append(ArenaSlot(buffer=interval.name, offset=offset,
                               nbytes=interval.nbytes,
                               start=interval.start, end=interval.end))
    arena_bytes = max((slot.offset + slot.nbytes for slot in slots),
                      default=0)
    return ArenaLayout(graph_name=graph_name, batch=batch,
                       slots=tuple(slots), arena_bytes=arena_bytes)


@dataclasses.dataclass(frozen=True)
class FootprintSummary:
    """Peak-footprint accounting of one plan on one SoC.

    Attributes:
        graph_name / soc / batch: the configuration analyzed.
        weight_bytes: resident filter/bias storage summed over
            processors (per-processor storage dtypes applied).
        packed_bytes: persistent packed-operand cache (weights
            re-packed in each processor's compute dtype).
        activation_peak_bytes: largest live activation set over steps.
        transient_peak_bytes: largest single step's transient kernel
            buffers (im2col columns or integer depthwise scratch).
        peak_bytes: weights + packed cache + the worst step's live
            activations and transients -- the number checked against
            capacity.
        peak_step: name of the layer at which the peak occurs.
        per_processor_bytes: weight + packed residency per processor.
        capacity_bytes: the SoC's shared DRAM capacity.
    """

    graph_name: str
    soc: str
    batch: int
    weight_bytes: int
    packed_bytes: int
    activation_peak_bytes: int
    transient_peak_bytes: int
    peak_bytes: int
    peak_step: str
    per_processor_bytes: Dict[str, int]
    capacity_bytes: float

    @property
    def utilization(self) -> float:
        """Peak footprint as a fraction of DRAM capacity."""
        return self.peak_bytes / self.capacity_bytes

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form."""
        return {
            "graph": self.graph_name, "soc": self.soc,
            "batch": self.batch,
            "weight_bytes": self.weight_bytes,
            "packed_bytes": self.packed_bytes,
            "activation_peak_bytes": self.activation_peak_bytes,
            "transient_peak_bytes": self.transient_peak_bytes,
            "peak_bytes": self.peak_bytes,
            "peak_step": self.peak_step,
            "per_processor_bytes": dict(self.per_processor_bytes),
            "capacity_bytes": self.capacity_bytes,
            "utilization": self.utilization,
        }


class MemoryFootprintAnalyzer:
    """Statically checks a plan's memory footprint against the SoC.

    Args:
        soc: the SoC whose shared DRAM bounds the plan.
        high_watermark: fraction of capacity above which MF003 warns.
        im2col_fraction: fraction of capacity one layer's transient
            kernel buffers may occupy before MF004 warns.
        packed_fraction: fraction of capacity the persistent packed-
            operand cache may occupy before MF005 warns.
    """

    def __init__(self, soc: SoCSpec, high_watermark: float = 0.75,
                 im2col_fraction: float = 0.10,
                 packed_fraction: float = 0.25) -> None:
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1]")
        self.soc = soc
        self.high_watermark = high_watermark
        self.im2col_fraction = im2col_fraction
        self.packed_fraction = packed_fraction

    # -- buffer accounting --------------------------------------------------

    @staticmethod
    def _batch_of(plan: ExecutionPlan,
                  batch: Optional[int]) -> int:
        chosen = plan.batch if batch is None else batch
        if not isinstance(chosen, int) or chosen < 1:
            raise ValueError(f"batch must be a positive integer, "
                             f"got {chosen!r}")
        return chosen

    def activation_intervals(self, graph: Graph, plan: ExecutionPlan,
                             batch: Optional[int] = None
                             ) -> List[BufferInterval]:
        """Liveness interval of every layer-output buffer.

        Delegates to the module-level :func:`activation_intervals`
        after resolving the batch against the plan.
        """
        return activation_intervals(graph, plan,
                                    self._batch_of(plan, batch))

    @staticmethod
    def _shares_of(plan: ExecutionPlan, graph: Graph,
                   name: str) -> Dict[str, float]:
        placement = plan.placement_of(name)
        if isinstance(placement, LayerAssignment):
            return placement.shares()
        return {placement: 1.0}

    def _weight_and_packed(self, graph: Graph, plan: ExecutionPlan
                           ) -> Tuple[int, int, Dict[str, int]]:
        """(weight bytes, packed bytes, per-processor residency)."""
        policy: QuantizationPolicy = plan.policy
        weight_bytes = 0
        packed_bytes = 0
        per_processor: Dict[str, int] = {}
        for name in graph.compute_layers():
            params = graph.layer_work(name).param_elements
            if params == 0:
                continue
            for resource, share in self._shares_of(plan, graph,
                                                   name).items():
                stored = int(round(
                    params * share
                    * policy.param_storage(resource).itemsize))
                packed = int(round(
                    params * share
                    * policy.compute_dtype(resource).itemsize))
                weight_bytes += stored
                packed_bytes += packed
                per_processor[resource] = (
                    per_processor.get(resource, 0) + stored + packed)
        return weight_bytes, packed_bytes, per_processor

    def _transient_bytes(self, graph: Graph, plan: ExecutionPlan,
                         name: str, batch: int) -> int:
        """Transient kernel bytes of one conv-shaped layer's step.

        The largest charge over the layer's pipelines, each taken over
        the whole layer: an im2col column matrix in the compute dtype,
        or the integer depthwise kernel's int32/int64 buffers.
        """
        layer = graph.layer(name)
        if layer.kind not in _TRANSIENT_KINDS:
            return 0
        shapes = graph.infer_shapes()
        out_shape = shapes[name]
        out_hw = int(out_shape[2]) * int(out_shape[3])
        kernel = int(getattr(layer, "kernel"))
        if layer.kind is LayerKind.CONV:
            channels = int(getattr(layer, "in_channels"))
        else:
            channels = int(getattr(layer, "channels"))
        columns = channels * kernel * kernel * out_hw * batch
        policy = plan.policy
        charges = []
        for resource in self._shares_of(plan, graph, name):
            compute = policy.compute_dtype(resource)
            if (layer.kind is LayerKind.DEPTHWISE_CONV
                    and policy.activation_storage is DType.QUINT8
                    and compute is DType.QUINT8):
                (producer,) = graph.inputs_of(name)
                in_shape = shapes[producer]
                pad = 2 * int(getattr(layer, "padding"))
                padded = (batch * channels * (int(in_shape[2]) + pad)
                          * (int(in_shape[3]) + pad))
                charges.append(
                    padded * _DW_INT_PADDED_ITEMSIZE
                    + batch * channels * out_hw * _DW_INT_OUTPUT_ITEMSIZE)
            else:
                charges.append(columns * compute.itemsize)
        return max(charges)

    # -- the analysis --------------------------------------------------------

    def footprint(self, graph: Graph, plan: ExecutionPlan,
                  batch: Optional[int] = None) -> FootprintSummary:
        """Peak-footprint accounting (no diagnostics)."""
        chosen = self._batch_of(plan, batch)
        intervals = self.activation_intervals(graph, plan, batch=chosen)
        weight_bytes, packed_bytes, per_processor = (
            self._weight_and_packed(graph, plan))
        order = graph.topological_order()
        index = {name: step for step, name in enumerate(order)}
        transient_peak = 0
        peak_live = 0
        peak_step = order[0] if order else ""
        for name in order:
            step = index[name]
            live = sum(b.nbytes for b in intervals
                       if b.start <= step <= b.end)
            transient = self._transient_bytes(graph, plan, name, chosen) \
                if name in plan.assignments or name in set(
                    graph.compute_layers()) else 0
            transient_peak = max(transient_peak, transient)
            if live + transient > peak_live:
                peak_live = live + transient
                peak_step = name
        return FootprintSummary(
            graph_name=graph.name, soc=self.soc.name, batch=chosen,
            weight_bytes=weight_bytes, packed_bytes=packed_bytes,
            activation_peak_bytes=max(
                (sum(b.nbytes for b in intervals
                     if b.start <= step <= b.end)
                 for step in range(len(order))), default=0),
            transient_peak_bytes=transient_peak,
            peak_bytes=weight_bytes + packed_bytes + peak_live,
            peak_step=peak_step,
            per_processor_bytes=per_processor,
            capacity_bytes=self.soc.memory.capacity_bytes)

    def arena(self, graph: Graph, plan: ExecutionPlan,
              batch: Optional[int] = None) -> ArenaLayout:
        """The activation arena pre-planned from the static shapes."""
        return plan_arena(graph, plan, self._batch_of(plan, batch))

    def analyze(self, graph: Graph, plan: ExecutionPlan,
                batch: Optional[int] = None) -> Report:
        """Run all MF rules on one plan; returns every finding."""
        chosen = self._batch_of(plan, batch)
        capacity = self.soc.memory.capacity_bytes
        summary = self.footprint(graph, plan, batch=chosen)
        report = Report()
        locus = graph.name
        if summary.peak_bytes > capacity:
            report.error(
                "MF001", locus,
                f"peak footprint {_mb(summary.peak_bytes)} at layer "
                f"{summary.peak_step!r} (batch {chosen}) exceeds "
                f"{self.soc.name}'s {_mb(capacity)} shared DRAM")
        elif summary.peak_bytes > self.high_watermark * capacity:
            report.warning(
                "MF003", locus,
                f"peak footprint {_mb(summary.peak_bytes)} exceeds "
                f"{self.high_watermark:.0%} of {self.soc.name}'s "
                f"{_mb(capacity)} DRAM; co-resident workloads will "
                "contend for the shared memory")
        if summary.weight_bytes > capacity:
            report.error(
                "MF002", locus,
                f"resident weights alone ({_mb(summary.weight_bytes)}) "
                f"exceed the {_mb(capacity)} DRAM capacity")
        for interval in self.activation_intervals(graph, plan,
                                                  batch=chosen):
            if interval.nbytes > capacity:
                report.error(
                    "MF002", interval.name,
                    f"activation buffer of {_mb(interval.nbytes)} "
                    f"(batch {chosen}) exceeds the {_mb(capacity)} "
                    "DRAM capacity on its own")
        for name in graph.compute_layers():
            columns = self._transient_bytes(graph, plan, name, chosen)
            if columns > capacity:
                report.error(
                    "MF002", name,
                    f"transient kernel buffers of {_mb(columns)} (batch "
                    f"{chosen}) exceed the {_mb(capacity)} DRAM "
                    "capacity on their own")
            elif columns > self.im2col_fraction * capacity:
                report.warning(
                    "MF004", name,
                    f"transient kernel buffers of {_mb(columns)} "
                    f"(batch {chosen}) occupy more than "
                    f"{self.im2col_fraction:.0%} of DRAM; consider "
                    "tiled lowering or a smaller batch")
        if summary.packed_bytes > self.packed_fraction * capacity:
            report.warning(
                "MF005", locus,
                f"persistent packed-operand cache of "
                f"{_mb(summary.packed_bytes)} occupies more than "
                f"{self.packed_fraction:.0%} of DRAM; bound the cache "
                "or disable op_caches for this deployment")
        report.extend(self.arena(graph, plan, batch=chosen).validate())
        return report
