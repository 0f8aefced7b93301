//! Dynamic activation policies for event capture with rechargeable sensors.
//!
//! This crate implements the contribution of *Ren, Cheng, Chen, Yau, Sun —
//! "Dynamic Activation Policies for Event Capture with Rechargeable Sensors"
//! (ICDCS 2012)*: activation policies that maximize the probability of
//! capturing renewal-process events *in the slot they occur*, subject to the
//! energy balance of a stochastic recharge process.
//!
//! # The two information models
//!
//! * **Full information** — the sensor always learns (at slot end) whether an
//!   event occurred. The optimization is a constrained average-reward MDP
//!   whose optimum, by the paper's Theorem 1, is the greedy water-filling
//!   policy [`GreedyPolicy`]: spend the per-renewal energy budget `e·μ` on
//!   the slots with the highest conditional event probability `β_i`.
//!   [`GreedyPolicy::certify_against_lp`] re-derives the optimum with a
//!   simplex solver to certify the theorem numerically.
//!
//! * **Partial information** — the sensor learns about events only in slots
//!   it is active; the exact POMDP is intractable (the information set grows
//!   exponentially). The paper's heuristic [`ClusteringPolicy`] splits the
//!   slots since the last *captured* event into cooling / hot / cooling /
//!   recovery regions; [`ClusteringOptimizer`] searches the region boundaries
//!   using the exact slotted belief propagation from `evcap-renewal`.
//!
//! # Baselines and the multi-sensor extension
//!
//! [`AggressivePolicy`], [`PeriodicPolicy`], and [`EbcwPolicy`] (the
//! positive-correlation policy of Jaggi et al., Fig. 5's comparator) are
//! provided, as are the round-robin coordination schemes of Section V
//! ([`SlotAssignment`], [`MultiSensorPlan`]) that scale every policy to `N`
//! collaborating sensors.
//!
//! # Example
//!
//! ```
//! use evcap_core::{EnergyBudget, GreedyPolicy};
//! use evcap_dist::SlotPmf;
//! use evcap_energy::ConsumptionModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The worked example from Section IV-A: α1 = 0.6, α2 = 0.4.
//! let pmf = SlotPmf::from_pmf(vec![0.6, 0.4])?;
//! let consumption = ConsumptionModel::paper_defaults();
//! // Give the sensor just enough energy to activate in slot 2 every renewal.
//! let budget = EnergyBudget::per_slot((1.0 * 0.4 + 6.0 * 0.4) / pmf.mean());
//! let policy = GreedyPolicy::optimize(&pmf, budget, &consumption)?;
//! // All energy goes to slot 2 where β2 = 1 (100% efficiency).
//! assert!(policy.coefficient(1) < 1e-9);
//! assert!((policy.coefficient(2) - 1.0).abs() < 1e-9);
//! assert!((policy.ideal_qom() - 0.4).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod baselines;
mod clustering;
mod ebcw;
mod error;
mod exhaustive;
mod fleet;
mod greedy;
mod multi;
mod myopic;
mod objective;
mod policy;
mod refined;

pub use baselines::{AggressivePolicy, PeriodicPolicy};
pub use clustering::{
    evaluate_partial_info, evaluate_partial_info_moments, ClusterEvaluation, ClusteringOptimizer,
    ClusteringPolicy, EvalOptions,
};
pub use ebcw::EbcwPolicy;
pub use error::PolicyError;
pub use exhaustive::{BitmaskPolicy, ExhaustiveSearch, MAX_WINDOW};
pub use fleet::{FleetAllocator, FleetPlan, PoiSpec};
pub use greedy::{EnergyBudget, GreedyPolicy};
pub use multi::{MultiSensorPlan, SlotAssignment};
pub use myopic::MyopicPolicy;
pub use objective::{gap_moments, greedy_cycle_moments, CycleMoments, Objective};
pub use policy::{ActivationPolicy, DecisionContext, InfoModel, PolicyTable, SlotClass};
pub use refined::{RegionPolicy, Segment};

/// Convenience alias for results in this crate.
pub type Result<T, E = PolicyError> = std::result::Result<T, E>;
