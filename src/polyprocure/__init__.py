"""Forward procurement of polytopic resources under demand uncertainty."""

from .lp import (
    IterationLimitError,
    LinearProgram,
    LpStatus,
    NumericalError,
    check_feasible,
    solve_lp,
    solve_lp_costs,
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
    is_bounded,
    minkowski_candidate_vertices,
    scale,
)
from .procurement import (
    PreconditionError,
    ProcurementInstance,
    ProcurementResult,
    Resource,
    affine_bound,
    battery_exact_procurement,
    cover_scale,
    minkowski_demand,
    oracle_sweep,
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
from .inputs import instance_from_json, polytope_from_json
from .costalloc import CostShares, allocate_cost, audit_axioms
from .demandset import (
    DemandSetModel,
    SignalDataset,
    build_model,
    coverage_curve,
    segment,
    split,
    window_average,
)

__version__ = "0.1.0"
