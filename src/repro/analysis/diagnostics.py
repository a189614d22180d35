"""Structured diagnostics shared by all static analyzers.

Every analyzer (:mod:`~repro.analysis.plan_verifier`,
:mod:`~repro.analysis.races`, :mod:`~repro.analysis.dtypeflow`) emits
:class:`Diagnostic` records into a :class:`Report`.  A diagnostic names
the violated rule (a stable identifier from :data:`RULES`), the locus in
the artifact being analyzed (a layer, segment, or region), a severity,
and a human-readable message.  Reports render to text or JSON and can
escalate to :class:`~repro.errors.VerificationError` when errors are
present, which is how the executor's opt-in ``verify=True`` path fails
fast on a broken plan or timeline.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Dict, Iterable, Iterator, List

from ..errors import VerificationError


class Severity(enum.Enum):
    """How serious a diagnostic is.

    ERROR marks a violated correctness invariant (the execution is or
    would be wrong); WARNING marks a legal-but-inadvisable configuration
    (e.g. processor-unfriendly quantization); INFO is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: The rule catalogue: every rule id an analyzer may emit, with a short
#: description.  Rule ids are stable identifiers: PV* = plan verifier,
#: RC* = timeline race detector, DT* = dtype-flow linter, MF* = memory
#: footprint analyzer, SC* = schedulability analyzer, CL* = concurrency
#: source linter.
RULES: Dict[str, str] = {
    # -- PlanVerifier ------------------------------------------------------
    "PV001": "plan references a layer or graph that does not exist",
    "PV002": "compute layer left unassigned by the plan",
    "PV003": "layer assigned more than once (individually or via "
             "overlapping branch regions)",
    "PV004": "layer shares out of range or inconsistent with placement "
             "(split/npu_split outside [0, 1], shares summing past 1.0, "
             "or single-processor placement with foreign shares)",
    "PV005": "cooperative channel partition does not cover the layer's "
             "output channels exactly once",
    "PV006": "cooperative placement of a layer whose kind does not "
             "support channel-wise distribution",
    "PV007": "placement targets a processor the SoC does not have",
    "PV008": "branch-region assignment malformed (mapping/branch "
             "mismatch, non-self-contained region, or fork/join order "
             "violation)",
    "PV009": "cooperative layer computes its GPU share in QUInt8, the "
             "GPU-unfriendly data type (paper Fig. 8)",
    "PV010": "NPU share under a policy that stores float activations "
             "(NPUs consume quantized tensors)",
    "PV011": "plan batch size is not a positive integer (batch-keyed "
             "plan-cache entries must never be mixed)",
    "PV012": "compiled program inconsistent with its plan (step "
             "coverage, placements, channel ranges, storage dtypes, "
             "batch, or stale weight references)",
    # -- TimelineRaceDetector ----------------------------------------------
    "RC001": "two busy intervals overlap on one resource",
    "RC002": "compute segment starts before a producer layer's compute "
             "completed (happens-before violation)",
    "RC003": "CPU consumes accelerator-produced data without an "
             "intervening event-sync segment",
    "RC004": "accelerator consumes foreign-produced data without an "
             "intervening zero-copy map (or copy) segment",
    "RC005": "accelerator dispatch malformed (compute without launch, "
             "launch without compute, or launch before its CPU issue)",
    "RC006": "timeline structurally malformed (negative duration, "
             "unknown resource, or unknown segment kind)",
    # -- DtypeFlowLinter ---------------------------------------------------
    "DT001": "branch join merges inputs of different storage dtypes",
    "DT002": "requantisation omitted: quantized layer output has no "
             "calibrated range to requantize into",
    "DT003": "i32 accumulator never requantised: GEMM-shaped quantized "
             "layer lacks the output range its requantization needs",
    "DT004": "saturation risk: a concat input's representable range "
             "exceeds the join's output range",
    # -- MemoryFootprintAnalyzer -------------------------------------------
    "MF001": "peak memory footprint exceeds the SoC's shared DRAM "
             "capacity",
    "MF002": "a single buffer (weight set, activation, or transient "
             "kernel buffers) exceeds the SoC's DRAM capacity on its "
             "own",
    "MF003": "peak memory footprint above the high watermark of DRAM "
             "capacity (shared-memory contention risk)",
    "MF004": "transient kernel buffers dominate the footprint: one "
             "layer's im2col columns (or integer depthwise scratch) "
             "exceed the configured fraction of DRAM capacity",
    "MF005": "persistent packed-operand cache occupies more than the "
             "configured fraction of DRAM capacity",
    "MF006": "arena layout inconsistent (overlapping live slots, or an "
             "arena smaller than the live-set peak)",
    # -- SchedulabilityAnalyzer --------------------------------------------
    "SC001": "offered load is unschedulable: utilization rho >= 1 "
             "across the fleet",
    "SC002": "SLO below the best-case predicted service time (the "
             "deadline is unmeetable even on an idle fleet)",
    "SC003": "offered load near saturation (rho above the warning "
             "threshold); queueing will erode deadline slack",
    "SC004": "batch timeout consumes a model's entire deadline slack",
    "SC005": "configured max batch is unreachable within a model's SLO "
             "(deadline-safe widening will cap below it)",
    "SC006": "a pool is saturated: the demand share routed to it "
             "exceeds its service rate at max replicas (aggregate "
             "rho >= 1)",
    "SC007": "placement is infeasible: a model's plan overflows the "
             "DRAM of a pinned host pool, or no pool can host it",
    "SC008": "autoscaler ceiling too low: cluster-wide demand exceeds "
             "the aggregate service rate at every pool's max replicas",
    # -- ConcurrencyLinter --------------------------------------------------
    "CL001": "unguarded mutation of module-level shared state (no "
             "enclosing lock)",
    "CL002": "lock-free write to state of a class documented "
             "thread-safe",
    "CL003": "nondeterminism hazard: unseeded or process-global random "
             "source",
    "CL004": "wall-clock dependence (time.time/perf_counter/"
             "datetime.now) in library code",
}

#: Severity rank used for deterministic ordering (errors first).
_SEVERITY_RANK: Dict[Severity, int] = {
    Severity.ERROR: 0,
    Severity.WARNING: 1,
    Severity.INFO: 2,
}


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Attributes:
        severity: how serious the finding is.
        rule: rule id from :data:`RULES`.
        locus: where the finding anchors (layer/segment/region name).
        message: human-readable description.
    """

    severity: Severity
    rule: str
    locus: str
    message: str

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown diagnostic rule {self.rule!r}; "
                             f"register it in repro.analysis.RULES")

    def render(self) -> str:
        """One-line text form of the diagnostic."""
        return (f"{self.severity.value.upper():7s} {self.rule} "
                f"[{self.locus}] {self.message}")

    def to_dict(self) -> Dict[str, str]:
        """JSON-serializable form."""
        return {"severity": self.severity.value, "rule": self.rule,
                "locus": self.locus, "message": self.message}

    @staticmethod
    def from_dict(payload: Dict[str, str]) -> "Diagnostic":
        """Parse the :meth:`to_dict` form back into a diagnostic.

        Raises:
            ValueError: on a missing key, an unknown severity, or an
                unknown rule id.
        """
        try:
            severity = Severity(payload["severity"])
        except KeyError:
            raise ValueError("diagnostic dict lacks a severity") from None
        except ValueError:
            raise ValueError(
                f"unknown severity {payload['severity']!r}") from None
        try:
            return Diagnostic(severity=severity, rule=payload["rule"],
                              locus=payload["locus"],
                              message=payload["message"])
        except KeyError as exc:
            raise ValueError(f"diagnostic dict lacks {exc}") from None

    @property
    def sort_key(self) -> "tuple[str, str, int, str]":
        """Deterministic ordering key: (rule, locus, severity,
        message) -- the order SARIF baselines are diffed in."""
        return (self.rule, self.locus, _SEVERITY_RANK[self.severity],
                self.message)


class Report:
    """An ordered collection of diagnostics from one or more analyzers."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diagnostics: List[Diagnostic] = list(diagnostics)

    # -- collection --------------------------------------------------------

    def add(self, severity: Severity, rule: str, locus: str,
            message: str) -> None:
        """Record one diagnostic."""
        self._diagnostics.append(
            Diagnostic(severity=severity, rule=rule, locus=locus,
                       message=message))

    def error(self, rule: str, locus: str, message: str) -> None:
        """Record an ERROR diagnostic."""
        self.add(Severity.ERROR, rule, locus, message)

    def warning(self, rule: str, locus: str, message: str) -> None:
        """Record a WARNING diagnostic."""
        self.add(Severity.WARNING, rule, locus, message)

    def info(self, rule: str, locus: str, message: str) -> None:
        """Record an INFO diagnostic."""
        self.add(Severity.INFO, rule, locus, message)

    def extend(self, other: "Report | Iterable[Diagnostic]") -> "Report":
        """Append all diagnostics of another report; returns self."""
        self._diagnostics.extend(other)
        return self

    # -- queries -----------------------------------------------------------

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """All diagnostics, in emission order."""
        return list(self._diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        """Diagnostics of one severity."""
        return [d for d in self._diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        """All ERROR diagnostics."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        """All WARNING diagnostics."""
        return self.by_severity(Severity.WARNING)

    def rules_fired(self) -> List[str]:
        """Sorted unique rule ids present in the report."""
        return sorted({d.rule for d in self._diagnostics})

    def sorted(self) -> "Report":
        """A new report with diagnostics in deterministic order.

        Ordered by (rule, locus, severity, message) so that reports
        merged from parallel ``--jobs`` sweep workers always serialize
        identically and SARIF baselines diff cleanly.
        """
        return Report(sorted(self._diagnostics,
                             key=lambda d: d.sort_key))

    @property
    def clean(self) -> bool:
        """True when no diagnostics of any severity were emitted."""
        return not self._diagnostics

    @property
    def ok(self) -> bool:
        """True when no ERROR diagnostics were emitted."""
        return not self.errors

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        """Counts by severity, e.g. ``"2 errors, 1 warning"``."""
        if not self._diagnostics:
            return "no diagnostics"
        parts = []
        for severity in Severity:
            count = len(self.by_severity(severity))
            if count:
                plural = "s" if count != 1 else ""
                parts.append(f"{count} {severity.value}{plural}")
        return ", ".join(parts)

    def render(self) -> str:
        """Multi-line text report (one line per diagnostic + summary)."""
        lines = [d.render() for d in self._diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> List[Dict[str, str]]:
        """JSON-serializable list of the diagnostics, in order."""
        return [d.to_dict() for d in self._diagnostics]

    def to_json(self, indent: "int | None" = 2) -> str:
        """JSON array of the diagnostics."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, entries: Iterable[Dict[str, str]]) -> "Report":
        """Rebuild a report from its :meth:`to_dict` form."""
        return cls(Diagnostic.from_dict(entry) for entry in entries)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        """Rebuild a report from its :meth:`to_json` form.

        Raises:
            ValueError: when the JSON is not a list of diagnostic
                dicts, or an entry fails :meth:`Diagnostic.from_dict`.
        """
        payload = json.loads(text)
        if not isinstance(payload, list):
            raise ValueError("report JSON must be a list of diagnostics")
        return cls.from_dict(payload)

    def to_sarif(self, tool_name: str = "repro-analysis",
                 indent: "int | None" = 2) -> str:
        """The report as a SARIF 2.1.0 log (JSON string).

        File-shaped loci (``path.py:line``) become physical locations;
        everything else (layer names, plan regions) becomes a logical
        location.  See :mod:`repro.analysis.sarif` for the fingerprint
        and baseline-suppression machinery built on top of this.
        """
        from .sarif import report_to_sarif
        return json.dumps(report_to_sarif(self, tool_name=tool_name),
                          indent=indent, sort_keys=True)

    def raise_if_errors(self, context: str = "") -> None:
        """Escalate to :class:`VerificationError` when errors exist."""
        if self.ok:
            return
        prefix = f"{context}: " if context else ""
        rendered = "\n".join(d.render() for d in self.errors)
        raise VerificationError(
            f"{prefix}{len(self.errors)} verification error(s)\n{rendered}",
            diagnostics=self.diagnostics)

    def __repr__(self) -> str:
        return f"<Report {self.summary()}>"
