"""Static analysis and verification: plans, timelines, memory, serving.

Six analyzers, one diagnostic vocabulary:

* :class:`PlanVerifier` -- proves an
  :class:`~repro.runtime.plan.ExecutionPlan`'s invariants against its
  graph and SoC before anything runs (rules ``PV001``-``PV011``),
  and -- via :func:`verify_program` -- proves a lowered
  :class:`~repro.compile.program.CompiledProgram` consistent with the
  plan it claims to implement (rule ``PV012``);
* :class:`TimelineRaceDetector` -- checks a post-run
  :class:`~repro.soc.Timeline` against the graph's happens-before
  relation and the CPU-accelerator handoff protocol
  (rules ``RC001``-``RC006``);
* :class:`DtypeFlowLinter` -- abstract interpretation of the
  quantization dtype/scale facts flowing along graph edges
  (rules ``DT001``-``DT004``);
* :class:`MemoryFootprintAnalyzer` -- per-step liveness and peak
  footprint against the SoC's shared DRAM, plus a pre-planned
  activation :class:`ArenaLayout` (rules ``MF001``-``MF006``);
* :class:`SchedulabilityAnalyzer` -- static feasibility of a
  :class:`~repro.serve.ServeConfig` from the fleet's predictor
  estimates, before any simulation (rules ``SC001``-``SC005``); its
  cluster sibling :class:`ClusterSchedulabilityAnalyzer` lints a
  :class:`~repro.cluster.ClusterConfig`'s pools, placement, and
  autoscaler ceiling the same way (rules ``SC006``-``SC008``);
* :class:`ConcurrencyLinter` -- AST lint of the repo's own sources for
  unguarded shared state and nondeterminism hazards
  (rules ``CL001``-``CL004``).

All six emit :class:`Diagnostic` records into a :class:`Report`, which
renders as text, JSON, or SARIF (:mod:`~repro.analysis.sarif` adds the
fingerprint/baseline machinery CI uses); the
:mod:`~repro.analysis.verify` harness (and the ``python -m repro
verify`` CLI) sweeps the plan-level analyzers across mechanisms,
models, and SoCs.
"""

from .diagnostics import Diagnostic, Report, RULES, Severity
from .dtypeflow import DtypeFact, DtypeFlowLinter
from .memory import (ArenaLayout, ArenaSlot, BufferInterval,
                     FootprintSummary, MemoryFootprintAnalyzer,
                     build_arena)
from .plan_verifier import PlanVerifier, verify_program
from .races import TimelineRaceDetector
from .sarif import (apply_baseline, baseline_document, fingerprint,
                    load_baseline, report_to_sarif, split_locus)
from .schedulability import (ClusterSchedulabilityAnalyzer,
                             SchedulabilityAnalyzer,
                             lint_cluster_config, lint_serve_config,
                             utilization)
from .srclint import ConcurrencyLinter
from .verify import (MECHANISMS, SweepEntry, applicable_mechanisms,
                     build_plan, verify_mechanism, verify_run,
                     verify_static, verify_sweep)

__all__ = [
    "ArenaLayout",
    "ArenaSlot",
    "BufferInterval",
    "ClusterSchedulabilityAnalyzer",
    "ConcurrencyLinter",
    "Diagnostic",
    "DtypeFact",
    "DtypeFlowLinter",
    "FootprintSummary",
    "MECHANISMS",
    "MemoryFootprintAnalyzer",
    "PlanVerifier",
    "verify_program",
    "Report",
    "RULES",
    "SchedulabilityAnalyzer",
    "Severity",
    "SweepEntry",
    "TimelineRaceDetector",
    "applicable_mechanisms",
    "apply_baseline",
    "baseline_document",
    "build_arena",
    "build_plan",
    "fingerprint",
    "lint_cluster_config",
    "lint_serve_config",
    "load_baseline",
    "report_to_sarif",
    "split_locus",
    "utilization",
    "verify_mechanism",
    "verify_run",
    "verify_static",
    "verify_sweep",
]
