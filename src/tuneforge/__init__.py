"""tuneforge: configuration sensitivity profiling and procedural tuning documents.

The pipeline discovers which parameters of a configurable system materially
affect performance (one-at-a-time CV sweeps), how they interact (two-stage
factorial ANOVA with FDR control), groups correlated parameters into joint
optimization components, and compiles the findings into an executable DAG of
tuning skills that a deterministic interpreter can run against a deployment.
"""

from .docgen import (BenchmarkStep, BranchStep, ComputeStep, KnowledgeExport, ProceduralDocument,
                     Skill, compile_document, export_knowledge, validate_document)
from .errors import (AdapterError, AnalysisError, CompileError, CrashError,
                     DocumentError, ExpressionError, ParameterError, TuneforgeError)
from .executor import TuningSession, replay_session, run_session
from .expr import evaluate_predicate
from .harness import (CampaignStore, Measurement, MeasurementLog, ShellAdapter, run_experiment,
                      run_plan)
from .interaction import (AnovaDecomposition, FactorialTable, InteractionRecord,
                          InteractionReport, eta_squared, plan_pairs, stage_a_int_pct,
                          two_way_anova)
from .sensitivity import (SensitivityProfile, SensitivityReport, SweepResult,
                          analyze_sensitivity, classify_shape, compute_cv,
                          extract_safe_range, plan_sweep, select_top_k)
from .simulator import Coupling, CrashRegion, Response, SimulatorAdapter, SimulatorModel
from .space import (Configuration, Domain, ParameterSpace, ParameterSpec,
                    WorkloadSpec, level_grid, load_space, load_workloads,
                    validate_configuration)
from .stats import benjamini_hochberg, f_upper_tail_p, regularized_incomplete_beta
from .topology import (CorrelationGraph, JointOptimum, JointSearchPlan,
                       OptimaReport, build_graph, independent_baseline,
                       optimize_component, plan_joint_search)

__version__ = "0.1.0"
