//! Slotted discrete-time simulator for rechargeable event-capture sensors.
//!
//! This crate is the experimental testbed of the reproduction: it plays an
//! activation policy against a sampled renewal event process, with real
//! finite batteries (capacity `K`, overflow losses, forced idling below the
//! `δ1 + δ2` activation threshold) and any of the recharge processes from
//! `evcap-energy`. It implements both of the paper's observation models and
//! the multi-sensor round-robin coordination of Section V.
//!
//! The in-slot ordering follows the paper's Fig. 1 exactly:
//!
//! 1. every sensor's recharge `e_t` is applied (clamped at `K`);
//! 2. the sensor in charge of the slot makes its activation decision from
//!    its information state (and is forced inactive below `δ1 + δ2`);
//! 3. the event, if any, occurs; an active in-charge sensor captures it
//!    (consuming `δ2` on top of the `δ1` sensing cost).
//!
//! # Example
//!
//! ```
//! use evcap_core::AggressivePolicy;
//! use evcap_dist::{Discretizer, Weibull};
//! use evcap_energy::{BernoulliRecharge, Energy};
//! use evcap_sim::Simulation;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pmf = Discretizer::new().discretize(&Weibull::new(40.0, 3.0)?)?;
//! let report = Simulation::builder(&pmf)
//!     .slots(100_000)
//!     .seed(7)
//!     .battery(Energy::from_units(1000.0))
//!     .run(&AggressivePolicy::new(), &mut |_| {
//!         Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).expect("valid"))
//!     })?;
//! assert!(report.events > 0);
//! assert!(report.qom() > 0.0 && report.qom() <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod adaptive;
mod batch;
mod engine;
mod error;
mod events;
mod metrics;
mod outage;
pub mod parallel;
mod sizing;
mod stats;

pub use adaptive::{run_adaptive_greedy, AdaptiveConfig, AdaptiveReport, EpisodeOutcome};
pub use batch::{BatchReport, ReplicationBatch, SyncRechargeFactory};
pub use engine::{Coordination, RechargeFactory, Simulation};
pub use error::SimError;
pub use events::EventSchedule;
pub use metrics::{BatterySample, SensorStats, SimReport, TraceRecord};
pub use outage::{OutagePlan, OutageWindow};
pub use sizing::{recommend_capacity, CapacityRecommendation, SizingOptions};
pub use stats::{replicate, Summary};

/// Convenience alias for results in this crate.
pub type Result<T, E = SimError> = std::result::Result<T, E>;
