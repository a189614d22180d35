"""The uLayer runtime facade.

Wires the three components of Figure 13 together: the **NN partitioner**
(with its **latency predictor**) builds an execution plan, and the
**NN executor** runs the plan on the simulated SoC.  Feature switches
reproduce the paper's ablation (Figure 17): channel-wise workload
distribution, processor-friendly quantization, and branch distribution
can each be enabled independently.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Graph
from ..quant.calibrate import CalibrationTable
from ..soc import SoCSpec
from .executor import Executor
from .metrics import InferenceResult
from .partitioner import Partitioner, PartitionerConfig
from .pfq import (PROCESSOR_FRIENDLY, QuantizationPolicy, UNIFORM_QUINT8)
from .plan import ExecutionPlan
from .plan_cache import PlanCache, PlanKey
from .predictor import LatencyPredictor


class MuLayer:
    """The full uLayer runtime for one SoC.

    Args:
        soc: the target SoC.
        policy: quantization policy; the paper's processor-friendly
            quantization by default, ``UNIFORM_QUINT8`` for the
            channel-distribution-only ablation stage.
        enable_channel_distribution: allow cooperative per-layer
            CPU+GPU splits (Section 3.2).
        enable_branch_distribution: allow parallel branch execution
            (Section 5).
        use_oracle_costs: plan with exact timing-model costs instead
            of the fitted latency predictor (ablation).
        zero_copy / async_issue: the Section 6 implementation
            optimizations (ablations flip them off).
        verify: run the static analyzers around every execution (see
            :class:`~repro.runtime.executor.Executor`).
        compiled: execute functional runs through the compiled fused
            program (byte-identical outputs, lower wall clock); the
            program is cached in the plan cache next to its plan and
            invalidated with it.
        plan_cache: an externally shared
            :class:`~repro.runtime.plan_cache.PlanCache` (the serving
            fleet passes one cache to many runtimes); a private cache
            is created when omitted.
    """

    #: Compiled programs have one lowering per step and no kernel
    #: search; kept as a constant because ``perfbench`` reports it.
    tuner = None

    def __init__(self, soc: SoCSpec,
                 policy: QuantizationPolicy = PROCESSOR_FRIENDLY,
                 enable_channel_distribution: bool = True,
                 enable_branch_distribution: bool = True,
                 use_oracle_costs: bool = False,
                 zero_copy: bool = True,
                 async_issue: bool = True,
                 verify: bool = False,
                 compiled: bool = False,
                 predictor: Optional[LatencyPredictor] = None,
                 plan_cache: Optional[PlanCache] = None) -> None:
        self.soc = soc
        self.policy = policy
        self.compiled = compiled
        config = PartitionerConfig(
            enable_channel_distribution=enable_channel_distribution,
            enable_branch_distribution=enable_branch_distribution,
            use_oracle_costs=use_oracle_costs,
        )
        self.partitioner = Partitioner(soc, policy=policy, config=config,
                                       predictor=predictor)
        self.executor = Executor(soc, zero_copy=zero_copy,
                                 async_issue=async_issue, verify=verify)
        self.plan_cache = plan_cache if plan_cache is not None else (
            PlanCache())

    def _plan_key(self, graph: Graph, batch: int = 1) -> PlanKey:
        """The cache identity of this runtime's plan for ``graph``."""
        return PlanKey(model=graph.name, soc=self.soc.name,
                       mechanism="mulayer", policy=self.policy.name,
                       batch=batch)

    def plan(self, graph: Graph, batch: int = 1) -> ExecutionPlan:
        """The execution plan for ``graph`` (cached per configuration).

        Plans are cached per batch size: a batch-4 plan has its own
        split ratios and must never be served for a batch-1 request.
        """
        return self.plan_cache.get_or_build(
            self._plan_key(graph, batch),
            lambda: self.partitioner.plan(graph, batch=batch))

    def program(self, graph: Graph,
                calibration: Optional[CalibrationTable] = None,
                batch: int = 1):
        """The compiled program for ``graph`` (cached next to its plan).

        The program is keyed by the plan's cache identity plus the run
        batch, identity-validated against the graph's current weight
        arrays and the calibration table on every lookup, and dropped
        whenever its plan is replaced or evicted.
        """
        # Imported lazily: repro.compile imports the analysis package,
        # which imports this one.
        from ..compile import compile_program
        key = self._plan_key(graph, batch)
        plan = self.plan(graph, batch=batch)
        program = self.plan_cache.get_program(
            key, batch, graph=graph, calibration=calibration)
        if program is None or program.plan is not plan:
            program = compile_program(graph, plan,
                                      calibration=calibration,
                                      batch=batch, mechanism="mulayer")
            self.plan_cache.put_program(key, batch, program)
        return program

    def run(self, graph: Graph, x: Optional[np.ndarray] = None,
            calibration: Optional[CalibrationTable] = None,
            batch: Optional[int] = None,
            compiled: Optional[bool] = None) -> InferenceResult:
        """Plan (if needed) and execute one inference.

        Args:
            graph: the network.
            x: input batch for functional execution; omit for
                timing-only runs.
            calibration: activation ranges, required for functional
                runs under a quantized policy.
            batch: batch size to plan and time for; defaults to the
                leading dimension of ``x`` when data is given, else 1.
            compiled: override the runtime's ``compiled`` setting for
                this run.
        """
        if batch is None:
            batch = int(x.shape[0]) if x is not None else 1
        plan = self.plan(graph, batch=batch)
        use_compiled = self.compiled if compiled is None else compiled
        program = None
        if use_compiled and x is not None:
            program = self.program(graph, calibration=calibration,
                                   batch=batch)
        return self.executor.run(graph, plan, x=x,
                                 calibration=calibration,
                                 mechanism="mulayer", batch=batch,
                                 program=program)


def mulayer_ablation_stages(soc: SoCSpec,
                            use_oracle_costs: bool = False
                            ) -> "dict[str, MuLayer]":
    """The incremental configurations of Figure 17.

    Returns runtimes for:

    * ``"ch_dist"`` -- channel-wise distribution only (uniform QUInt8
      on both processors, no branch distribution);
    * ``"ch_dist+pfq"`` -- plus processor-friendly quantization;
    * ``"full"`` -- plus branch distribution (the complete uLayer).
    """
    return {
        "ch_dist": MuLayer(soc, policy=UNIFORM_QUINT8,
                           enable_branch_distribution=False,
                           use_oracle_costs=use_oracle_costs),
        "ch_dist+pfq": MuLayer(soc, policy=PROCESSOR_FRIENDLY,
                               enable_branch_distribution=False,
                               use_oracle_costs=use_oracle_costs),
        "full": MuLayer(soc, policy=PROCESSOR_FRIENDLY,
                        use_oracle_costs=use_oracle_costs),
    }
