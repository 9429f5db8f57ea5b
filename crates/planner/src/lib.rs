//! Resource allocation planning (§4.3).
//!
//! Given an experiment specification, fitted model/cloud profiles (via the
//! [`Simulator`](rb_sim::Simulator)), and a time constraint, a planner
//! produces an [`AllocationPlan`](rb_sim::AllocationPlan) predicted to be
//! feasible and cheap. Three planners are provided, matching the paper's
//! evaluated policies:
//!
//! * [`static_planner`] — the *static* baseline: the cost-optimal
//!   fixed-size cluster that meets the deadline (§3.2),
//! * [`greedy`] — *RubberBand*: iterative-greedy descent from (multiples
//!   of) the static optimum, decrementing one stage at a time along the
//!   fair ladder and selecting by cost-marginal benefit (Algorithm 2),
//! * [`naive`] — the *naive elastic* baseline: cluster size tracks the
//!   trial count with a fixed per-trial allocation, à la prior systems
//!   (§6.3.1).
//!
//! [`schedule`] renders a plan as a human-readable cluster schedule
//! (Table 3), and [`budget`] solves the dual problem — minimum JCT under
//! a cost budget (§2, footnote 1).

pub mod budget;
pub(crate) mod descent;
pub mod greedy;
pub mod naive;
pub mod policy;
pub mod schedule;
pub mod select;
pub mod static_planner;

pub use budget::plan_min_jct;
pub use greedy::{
    optimize_plan, plan_residual, plan_rubberband, GreedyOutcome, PlannerConfig, ResidualOutcome,
    MAX_GPUS_PER_TRIAL,
};
pub use naive::plan_naive_elastic;
pub use policy::{plan_with_policy, PlanOutcome, Policy};
pub use schedule::{render_schedule, ScheduleRow};
pub use select::{select_instance_type, InstanceCandidate, SelectionOutcome};
pub use static_planner::plan_static_optimal;
