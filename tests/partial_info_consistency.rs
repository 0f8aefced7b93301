//! The censored belief propagation (our replacement for the paper's
//! Appendix B) must agree with *measured* conditional statistics from the
//! simulator: β̂_i computed analytically equals the empirical probability
//! that an event occurs i slots after a capture, conditioned on no capture
//! in between.

use evcap::core::{ActivationPolicy, ClusteringPolicy, DecisionContext};
use evcap::dist::{Discretizer, SlotPmf, Weibull};
use evcap::energy::{ConstantRecharge, Energy};
use evcap::renewal::{AgeBeliefDp, HazardTable};
use evcap::sim::Simulation;

/// Measures empirical β̂_i from a traced simulation: among the times the
/// capture chain reached state i, how often did an event occur in that slot?
fn empirical_hazards(
    pmf: &SlotPmf,
    policy: &ClusteringPolicy,
    slots: u64,
    max_state: usize,
) -> Vec<(f64, u64)> {
    let report = Simulation::builder(pmf)
        .slots(slots)
        .seed(61)
        .battery(Energy::from_units(100_000.0))
        .initial_level(Energy::from_units(100_000.0))
        .trace_slots(slots as usize)
        .run(policy, &mut |_| {
            // Abundant energy: the energy assumption holds, matching the
            // analytic chain.
            Box::new(ConstantRecharge::new(Energy::from_units(10.0)).expect("valid"))
        })
        .expect("valid simulation");
    let mut hits = vec![0u64; max_state + 1];
    let mut visits = vec![0u64; max_state + 1];
    for r in &report.trace {
        if r.state <= max_state {
            visits[r.state] += 1;
            if r.event {
                hits[r.state] += 1;
            }
        }
    }
    (1..=max_state)
        .map(|i| {
            let v = visits[i];
            (
                if v == 0 {
                    f64::NAN
                } else {
                    hits[i] as f64 / v as f64
                },
                v,
            )
        })
        .collect()
}

#[test]
fn analytic_hazards_match_simulation() {
    let pmf = Discretizer::new()
        .discretize(&Weibull::new(12.0, 3.0).unwrap())
        .unwrap();
    // A policy with real cooling regions so censoring actually happens.
    let policy = ClusteringPolicy::new(6, 12, 18, 1.0, 1.0, 1.0).unwrap();
    let max_state = 24;
    let hazards = HazardTable::new(&pmf, max_state);
    let mut dp = AgeBeliefDp::new(&hazards);
    let analytic: Vec<f64> = (1..=max_state)
        .map(|i| {
            dp.step(policy.probability(&DecisionContext::stationary(i)))
                .hazard
        })
        .collect();
    let empirical = empirical_hazards(&pmf, &policy, 400_000, max_state);
    for i in 1..=max_state {
        let (emp, visits) = empirical[i - 1];
        if visits < 2_000 {
            continue; // too rare for a tight estimate
        }
        let ana = analytic[i - 1];
        assert!(
            (emp - ana).abs() < 0.02,
            "state {i}: empirical {emp} (n={visits}) vs analytic {ana}"
        );
    }
}

#[test]
fn missed_mass_concentrates_in_cooling_regions() {
    // With full activation nothing is censored: the chain's survival after
    // the support is exhausted must be ~0, and every β̂ matches β.
    let pmf = Discretizer::new()
        .discretize(&Weibull::new(12.0, 3.0).unwrap())
        .unwrap();
    let always = ClusteringPolicy::new(1, 1, 1, 1.0, 1.0, 1.0).unwrap();
    let hazards = HazardTable::new(&pmf, 40);
    let mut dp = AgeBeliefDp::new(&hazards);
    for i in 1..=40 {
        let step = dp.step(always.probability(&DecisionContext::stationary(i)));
        assert!((step.hazard - pmf.hazard(i)).abs() < 1e-12, "state {i}");
    }
    assert!(dp.survival() < 1e-9, "{}", dp.survival());
}

#[test]
fn capture_chain_statistics_match_simulation() {
    // Expected capture cycle from the analytic chain vs the mean observed
    // inter-capture time.
    let pmf = Discretizer::new()
        .discretize(&Weibull::new(12.0, 3.0).unwrap())
        .unwrap();
    let policy = ClusteringPolicy::new(6, 12, 18, 1.0, 1.0, 1.0).unwrap();
    let eval = policy.evaluate(
        &pmf,
        &evcap::energy::ConsumptionModel::paper_defaults(),
        evcap::core::EvalOptions::default(),
    );
    let report = Simulation::builder(&pmf)
        .slots(400_000)
        .seed(67)
        .battery(Energy::from_units(100_000.0))
        .initial_level(Energy::from_units(100_000.0))
        .run(&policy, &mut |_| {
            Box::new(ConstantRecharge::new(Energy::from_units(10.0)).expect("valid"))
        })
        .expect("valid simulation");
    let mean_cycle = report.slots as f64 / report.captures as f64;
    assert!(
        (mean_cycle - eval.expected_cycle).abs() / eval.expected_cycle < 0.03,
        "simulated cycle {mean_cycle} vs analytic {}",
        eval.expected_cycle
    );
    assert!(
        (report.qom() - eval.capture_probability).abs() < 0.02,
        "simulated {} vs analytic {}",
        report.qom(),
        eval.capture_probability
    );
}
