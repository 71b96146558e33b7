"""Forward procurement of polytopic resources under demand uncertainty."""

from .lp import (
    IterationLimitError,
    LinearProgram,
    LpStatus,
    check_feasible,
    solve_lp,
)
from .polytope import (
    BatchJob,
    BatterySpec,
    HPolytope,
    VPolytope,
    batch_workload_set,
    battery_set,
    contains_point,
    extreme_points,
    hrep_to_vrep,
    instance_set,
    interiority_margin,
    is_bounded,
    minkowski_candidate_vertices,
    polytope_from_json,
    polytope_to_json,
    scale,
)
from .procurement import (
    PreconditionError,
    ProcurementInstance,
    ProcurementResult,
    Resource,
    affine_bound,
    battery_exact_jss,
    battery_exact_procurement,
    cover_scale,
    instance_from_json,
    minkowski_demand,
    price_of_causality,
    proportional_bound,
    solve_oracle,
    tv_proportional_bound,
)
from .causal import (
    AffinePolicy,
    BlockSchedule,
    CausalCheck,
    DispatchRangeError,
    ScenarioTree,
    build_block_policy,
    build_scenario_tree,
    causal_feasibility,
    dispatch_affine,
    dispatch_block,
    verify_dispatch,
)
from .costalloc import CostShares, allocate_cost, audit_axioms
from .demandset import (
    DemandSetModel,
    SignalDataset,
    build_model,
    coverage_curve,
    coverage_ratio,
    segment,
    split,
    window_average,
)

__version__ = "0.1.0"
