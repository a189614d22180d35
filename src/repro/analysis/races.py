"""Happens-before checking of simulated execution timelines (RC001-RC006).

After a run, the :class:`Timeline` is a flat ledger of busy intervals.
The executor *should* have ordered them so that every data dependency
of the graph is respected and every CPU-accelerator handoff paid its
synchronization and zero-copy mapping costs -- but nothing in the
ledger itself enforces that.  The :class:`TimelineRaceDetector` rebuilds
the happens-before relation from the graph and the plan and checks the
recorded segments against it:

* RC001 -- two reservations overlap on one resource (a double-booked
  processor);
* RC002 -- a compute segment starts before some producer layer's
  compute segments completed (reading data that does not exist yet);
* RC003 -- a layer's CPU compute consumes accelerator-produced data
  with no event-sync segment in between (a zero-copy read of a buffer
  the accelerator may still be writing);
* RC004 -- an accelerator kernel consumes data produced on another
  processor with no zero-copy map (or explicit copy) in between;
* RC005 -- accelerator dispatch protocol violations: a kernel with no
  launch, a launch with no kernel, or a launch that precedes its CPU
  issue (the OpenCL-style in-order queue of Section 6);
* RC006 -- structurally malformed segments (negative duration, unknown
  resource or kind).

The detector accepts either a :class:`Timeline` or a bare iterable of
:class:`Segment` records, so golden tests can hand-build pathological
ledgers without driving the executor into an illegal state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Union

from ..errors import PlanError
from ..nn import Graph
from ..nn.layers import Input
from ..runtime.plan import ExecutionPlan, LayerAssignment
from ..soc import CPU, GPU, NPU, RESOURCES, Segment, SoCSpec, Timeline
from ..soc.timeline import KNOWN_KINDS
from .diagnostics import Report

#: Tolerance for floating-point time comparisons.
_TIME_EPS = 1e-9

#: Resources driven through a command queue (launch/issue protocol).
_ACCELERATORS = (GPU, NPU)


class TimelineRaceDetector:
    """Checks a post-run timeline against the graph's happens-before."""

    def __init__(self, soc: SoCSpec) -> None:
        self.soc = soc

    def check(self, graph: Graph, plan: ExecutionPlan,
              timeline: Union[Timeline, Iterable[Segment]]) -> Report:
        """All race/ordering violations of one recorded execution."""
        segments = (timeline.segments()
                    if isinstance(timeline, Timeline) else list(timeline))
        report = Report()
        self._check_structure(segments, report)
        self._check_overlap(segments, report)
        compute_of = _compute_segments_by_layer(segments)
        self._check_happens_before(graph, compute_of, report)
        self._check_cpu_sync(graph, plan, segments, compute_of, report)
        self._check_accel_handoff(graph, plan, segments, compute_of,
                                  report)
        self._check_dispatch(segments, report)
        return report

    # -- structural checks -------------------------------------------------

    @staticmethod
    def _check_structure(segments: List[Segment], report: Report) -> None:
        for segment in segments:
            locus = f"{segment.resource}:{segment.layer}"
            if segment.end < segment.start - _TIME_EPS:
                report.error(
                    "RC006", locus,
                    f"{segment.kind} segment has negative duration "
                    f"[{segment.start}, {segment.end}]")
            if segment.resource not in RESOURCES:
                report.error(
                    "RC006", locus,
                    f"unknown resource {segment.resource!r}")
            if segment.kind not in KNOWN_KINDS:
                report.error(
                    "RC006", locus,
                    f"unknown segment kind {segment.kind!r}")

    @staticmethod
    def _check_overlap(segments: List[Segment], report: Report) -> None:
        for resource in RESOURCES:
            mine = sorted((s for s in segments if s.resource == resource),
                          key=lambda s: (s.start, s.end))
            for before, after in zip(mine, mine[1:]):
                if after.start < before.end - _TIME_EPS:
                    report.error(
                        "RC001", f"{resource}:{after.layer}",
                        f"{after.kind} segment starting at "
                        f"{after.start:.6g}s overlaps the {before.kind} "
                        f"segment of {before.layer!r} ending at "
                        f"{before.end:.6g}s")

    # -- happens-before ----------------------------------------------------

    def _check_happens_before(self, graph: Graph,
                              compute_of: Dict[str, List[Segment]],
                              report: Report) -> None:
        for name in graph.topological_order():
            if isinstance(graph.layer(name), Input):
                continue
            mine = compute_of.get(name, ())
            if not mine:
                continue
            for producer in graph.inputs_of(name):
                produced = compute_of.get(producer, ())
                if not produced:
                    continue    # Input layer or zero-cost producer
                producer_end = max(s.end for s in produced)
                for segment in mine:
                    if segment.start < producer_end - _TIME_EPS:
                        report.error(
                            "RC002",
                            f"{segment.resource}:{name}",
                            f"compute starts at {segment.start:.6g}s "
                            f"before producer {producer!r} completes "
                            f"at {producer_end:.6g}s")

    # -- CPU-accelerator handoffs ------------------------------------------

    def _check_cpu_sync(self, graph: Graph, plan: ExecutionPlan,
                        segments: List[Segment],
                        compute_of: Dict[str, List[Segment]],
                        report: Report) -> None:
        """RC003: accel-produced data needs an event sync before CPU use."""
        fork_of = _fork_by_layer(plan)
        syncs = [s for s in segments
                 if s.resource == CPU and s.kind == "sync"]
        for name in graph.compute_layers():
            resources = _planned_resources(graph, plan, name)
            if resources is None or CPU not in resources:
                continue
            cpu_compute = [s for s in compute_of.get(name, ())
                           if s.resource == CPU]
            if not cpu_compute:
                continue
            foreign = self._producer_resources(
                graph, plan, name) & set(_ACCELERATORS)
            if not foreign:
                continue
            start = min(s.start for s in cpu_compute)
            labels = {name, fork_of.get(name, name)}
            if not any(s.layer in labels and s.end <= start + _TIME_EPS
                       for s in syncs):
                report.error(
                    "RC003", f"cpu:{name}",
                    f"CPU compute at {start:.6g}s reads data produced "
                    f"on {sorted(foreign)} without an intervening "
                    "event-sync segment")

    def _check_accel_handoff(self, graph: Graph, plan: ExecutionPlan,
                             segments: List[Segment],
                             compute_of: Dict[str, List[Segment]],
                             report: Report) -> None:
        """RC004: foreign data entering an accelerator needs a map/copy."""
        fork_of = _fork_by_layer(plan)
        handoffs = [s for s in segments
                    if s.resource == CPU and s.kind in ("map", "copy")]
        for name in graph.compute_layers():
            resources = _planned_resources(graph, plan, name)
            if resources is None or len(resources) != 1:
                continue    # cooperative layers sync through the CPU
            (target,) = resources
            if target not in _ACCELERATORS:
                continue
            mine = [s for s in compute_of.get(name, ())
                    if s.resource == target]
            if not mine:
                continue
            producers = self._producer_resources(graph, plan, name)
            if not (producers - {target}):
                continue    # everything already lives on the target
            start = min(s.start for s in mine)
            labels = {name, fork_of.get(name, name)}
            if not any(s.layer in labels and s.end <= start + _TIME_EPS
                       for s in handoffs):
                report.error(
                    "RC004", f"{target}:{name}",
                    f"{target} kernel at {start:.6g}s reads data "
                    f"produced on {sorted(producers - {target})} "
                    "without an intervening zero-copy map or copy "
                    "segment")

    # -- dispatch protocol -------------------------------------------------

    @staticmethod
    def _check_dispatch(segments: List[Segment], report: Report) -> None:
        issues = [s for s in segments
                  if s.resource == CPU and s.kind == "issue"]
        for resource in _ACCELERATORS:
            mine = sorted((s for s in segments
                           if s.resource == resource),
                          key=lambda s: (s.start, s.end))
            previous: Optional[Segment] = None
            for segment in mine:
                if segment.kind == "compute":
                    if (previous is None or previous.kind != "launch"
                            or previous.layer != segment.layer):
                        report.error(
                            "RC005", f"{resource}:{segment.layer}",
                            "kernel has no immediately preceding "
                            "launch segment")
                elif segment.kind == "launch":
                    if (previous is not None
                            and previous.kind == "launch"):
                        report.error(
                            "RC005", f"{resource}:{previous.layer}",
                            "launch segment has no matching kernel")
                    if not any(s.layer == segment.layer
                               and s.end <= segment.start + _TIME_EPS
                               for s in issues):
                        report.error(
                            "RC005", f"{resource}:{segment.layer}",
                            "launch precedes (or lacks) its CPU issue "
                            "segment")
                previous = segment
            if previous is not None and previous.kind == "launch":
                report.error(
                    "RC005", f"{resource}:{previous.layer}",
                    "launch segment has no matching kernel")

    # -- plan-derived facts ------------------------------------------------

    def _producer_resources(self, graph: Graph, plan: ExecutionPlan,
                            name: str) -> Set[str]:
        resources: Set[str] = set()
        for producer in graph.inputs_of(name):
            produced = _planned_resources(graph, plan, producer)
            if produced:
                resources |= produced
        return resources


def _compute_segments_by_layer(segments: List[Segment]
                               ) -> Dict[str, List[Segment]]:
    compute_of: Dict[str, List[Segment]] = {}
    for segment in segments:
        if segment.kind == "compute":
            compute_of.setdefault(segment.layer, []).append(segment)
    return compute_of


def _planned_resources(graph: Graph, plan: ExecutionPlan,
                       name: str) -> Optional[Set[str]]:
    """Resources a layer's output lives on, per the plan.

    Input layers live CPU-side (host data); returns None when the plan
    does not cover the layer (coverage errors are the plan verifier's
    concern, not the race detector's).
    """
    if isinstance(graph.layer(name), Input):
        return {CPU}
    try:
        assignment = plan.placement_of(name)
    except PlanError:
        return None
    if isinstance(assignment, LayerAssignment):
        return set(assignment.shares())
    return {assignment}


def _fork_by_layer(plan: ExecutionPlan) -> Dict[str, str]:
    """Branch-internal layer -> its region's fork.

    The executor charges a branch region's handoffs once, labelled with
    the *fork*, so sync/map lookups for branch layers must also accept
    the fork's label.
    """
    fork_of: Dict[str, str] = {}
    for branch_assignment in plan.branch_assignments:
        for name in branch_assignment.region.layer_names:
            fork_of[name] = branch_assignment.region.fork
    return fork_of
