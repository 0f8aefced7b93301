//! Discrete renewal theory for slotted event processes.
//!
//! The paper's analysis leans on three renewal-theoretic objects:
//!
//! 1. the **renewal mass function** `u_t` — the probability that *some* event
//!    occurs in slot `t` given a renewal at slot 0 ([`RenewalFunction`]);
//! 2. the **forward recurrence time** `Ψ(t)` — the wait from slot `t` to the
//!    next event ([`forward_recurrence`], [`equilibrium_distribution`]);
//! 3. the **conditional capture hazards** `β̂_i` of the partial-information
//!    model (Appendix B): the probability that an event occurs `i` slots
//!    after the last *captured* event, given everything a duty-cycled sensor
//!    has (not) observed since.
//!
//! The paper derives (3) by manipulating continuous-time integral equations.
//! In slotted time there is an exact, simpler route: propagate a belief over
//! the *age* of the renewal process (slots since the last actual event),
//! censored by the sensor's activation sequence. [`AgeBeliefDp`] implements
//! that propagation in `O(#cooling slots)` per step by keying the belief on
//! the slot of the last actual event.
//!
//! # Example
//!
//! ```
//! use evcap_dist::SlotPmf;
//! use evcap_renewal::RenewalFunction;
//!
//! # fn main() -> Result<(), evcap_dist::DistError> {
//! let pmf = SlotPmf::from_pmf(vec![0.5, 0.5])?;
//! let renewal = RenewalFunction::new(&pmf, 64);
//! // The renewal density converges to 1/μ = 1/1.5.
//! assert!((renewal.mass(60) - 1.0 / 1.5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod age;
mod belief;
mod forward;
mod renewal_fn;

pub use age::{age_distribution, limiting_age, mean_spread, spread_distribution};
pub use belief::{AgeBeliefDp, BeliefStep, HazardTable};
pub use forward::{equilibrium_distribution, forward_recurrence};
pub use renewal_fn::RenewalFunction;
