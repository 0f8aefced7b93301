//! Online adaptation: learn the event process while capturing it.
//!
//! The paper assumes the inter-arrival distribution is *known*. In a fresh
//! deployment it is not — but under full information every event is observed
//! after the fact, so the sensor can fit the distribution from its own log
//! and re-optimize. [`run_adaptive_greedy`] plays that loop in episodes:
//!
//! 1. run an episode with the current policy (bootstrapping with the
//!    aggressive policy when nothing is known yet);
//! 2. append the episode's observed inter-arrival gaps to the log;
//! 3. refit an empirical [`SlotPmf`] and recompute the greedy policy.
//!
//! The per-episode QoM climbs from the aggressive baseline to the oracle's
//! level within a few episodes — the library's answer to "what if μ, F are
//! unknown?".

use evcap_core::{ActivationPolicy, AggressivePolicy, EnergyBudget, GreedyPolicy};
use evcap_dist::{EmpiricalGaps, SlotPmf};
use evcap_energy::{ConsumptionModel, Energy, RechargeProcess};

use crate::engine::Simulation;
use crate::events::EventSchedule;
use crate::{Result, SimError};

/// Controls for the adaptive loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Number of episodes to run.
    pub episodes: usize,
    /// Slots per episode.
    pub episode_slots: u64,
    /// Base seed (each episode derives its own).
    pub seed: u64,
    /// Battery capacity (fresh, half-full, each episode).
    pub capacity: Energy,
    /// Observations required before the first refit.
    pub min_observations: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            episodes: 6,
            episode_slots: 50_000,
            seed: 7,
            capacity: Energy::from_units(1000.0),
            min_observations: 50,
        }
    }
}

/// One episode's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeOutcome {
    /// Episode index (0-based).
    pub episode: usize,
    /// Events that occurred.
    pub events: u64,
    /// Events captured.
    pub captures: u64,
    /// The label of the policy used this episode.
    pub policy: String,
    /// Observations accumulated *before* this episode ran.
    pub observations: usize,
}

impl EpisodeOutcome {
    /// The episode's QoM.
    pub fn qom(&self) -> f64 {
        if self.events == 0 {
            1.0
        } else {
            self.captures as f64 / self.events as f64
        }
    }
}

/// The outcome of the adaptive loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Per-episode outcomes, in order.
    pub episodes: Vec<EpisodeOutcome>,
}

impl AdaptiveReport {
    /// QoM of the final episode (the converged behavior).
    pub fn final_qom(&self) -> f64 {
        self.episodes.last().map(EpisodeOutcome::qom).unwrap_or(1.0)
    }

    /// QoM of the first episode (the uninformed bootstrap).
    pub fn initial_qom(&self) -> f64 {
        self.episodes
            .first()
            .map(EpisodeOutcome::qom)
            .unwrap_or(1.0)
    }
}

/// Runs the learn-and-re-optimize loop against the (hidden) true process.
///
/// # Errors
///
/// * [`SimError::ZeroSlots`] for a zero-episode or zero-slot configuration.
/// * Simulation and fitting errors propagate.
pub fn run_adaptive_greedy(
    truth: &SlotPmf,
    budget: EnergyBudget,
    consumption: &ConsumptionModel,
    make_recharge: &mut (dyn FnMut(usize) -> Box<dyn RechargeProcess> + '_),
    config: AdaptiveConfig,
) -> Result<AdaptiveReport> {
    if config.episodes == 0 || config.episode_slots == 0 {
        return Err(SimError::ZeroSlots);
    }
    let mut observed_gaps: Vec<usize> = Vec::new();
    let mut fitted_policy: Option<GreedyPolicy> = None;
    let mut episodes = Vec::with_capacity(config.episodes);

    for episode in 0..config.episodes {
        let schedule = EventSchedule::generate(
            truth,
            config.episode_slots,
            config.seed.wrapping_add(episode as u64 * 0x9E37),
        )?;
        let observations = observed_gaps.len();
        let bootstrap = AggressivePolicy::new(); // deepcheck:allow(solve-site): episode re-planning from the fitted empirical pmf; no scenario spec exists
        let policy: &dyn ActivationPolicy = match &fitted_policy {
            Some(p) => p,
            None => &bootstrap,
        };
        let report = Simulation::builder(truth)
            .slots(config.episode_slots)
            .seed(config.seed.wrapping_add(episode as u64 * 0x51_7C))
            .battery(config.capacity)
            .run_on(&schedule, policy, make_recharge)?;
        episodes.push(EpisodeOutcome {
            episode,
            events: report.events,
            captures: report.captures,
            policy: policy.label(),
            observations,
        });

        // Full information: every event is observed after the fact, so the
        // whole schedule enters the log (the first gap is anchored at the
        // episode's slot 0, matching the paper's convention).
        let mut prev = 0u64;
        for &slot in schedule.event_slots() {
            observed_gaps.push((slot - prev) as usize);
            prev = slot;
        }

        if observed_gaps.len() >= config.min_observations {
            let fitted =
                EmpiricalGaps::from_slot_gaps(observed_gaps.clone())?.to_slot_pmf(Some(0.5))?;
            // deepcheck:allow(solve-site): episode re-planning from the fitted empirical pmf; no scenario spec exists
            fitted_policy = Some(GreedyPolicy::optimize(&fitted, budget, consumption)?);
        }
    }
    Ok(AdaptiveReport { episodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_dist::{Discretizer, Weibull};
    use evcap_energy::BernoulliRecharge;

    #[test]
    fn adapts_toward_the_oracle() {
        let truth = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let consumption = ConsumptionModel::paper_defaults();
        let budget = EnergyBudget::per_slot(0.5);
        let report = run_adaptive_greedy(
            &truth,
            budget,
            &consumption,
            &mut |_| Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap()),
            AdaptiveConfig {
                episodes: 5,
                episode_slots: 80_000,
                ..AdaptiveConfig::default()
            },
        )
        .unwrap();
        let oracle = GreedyPolicy::optimize(&truth, budget, &consumption).unwrap();
        // Bootstrap episode (aggressive) is clearly below the oracle…
        assert!(
            report.initial_qom() < oracle.ideal_qom() - 0.1,
            "{}",
            report.initial_qom()
        );
        // …and the converged episodes reach it (within simulation noise).
        assert!(
            report.final_qom() > oracle.ideal_qom() - 0.05,
            "final {} vs oracle {}",
            report.final_qom(),
            oracle.ideal_qom()
        );
        // The log grows monotonically across episodes.
        for pair in report.episodes.windows(2) {
            assert!(pair[1].observations > pair[0].observations);
        }
    }

    #[test]
    fn bootstrap_policy_is_aggressive() {
        let truth = Discretizer::new()
            .discretize(&Weibull::new(10.0, 3.0).unwrap())
            .unwrap();
        let report = run_adaptive_greedy(
            &truth,
            EnergyBudget::per_slot(0.5),
            &ConsumptionModel::paper_defaults(),
            &mut |_| Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap()),
            AdaptiveConfig {
                episodes: 2,
                episode_slots: 10_000,
                ..AdaptiveConfig::default()
            },
        )
        .unwrap();
        assert!(report.episodes[0].policy.contains("aggressive"));
        assert!(report.episodes[1].policy.contains("greedy"));
    }

    #[test]
    fn zero_config_rejected() {
        let truth = SlotPmf::from_pmf(vec![1.0]).unwrap();
        let err = run_adaptive_greedy(
            &truth,
            EnergyBudget::per_slot(0.5),
            &ConsumptionModel::paper_defaults(),
            &mut |_| Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap()),
            AdaptiveConfig {
                episodes: 0,
                ..AdaptiveConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ZeroSlots));
    }
}
