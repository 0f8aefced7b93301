//! A myopic belief-threshold baseline for partial information.
//!
//! A natural POMDP heuristic that the paper's clustering policy implicitly
//! competes with: track the belief over the event process, and activate
//! exactly in the states whose conditional event probability `β̂_i` clears a
//! threshold `θ`, with `θ` tuned for energy balance.
//!
//! Because the policy's own past decisions determine which observations were
//! censored, `β̂_i` depends on `c_1..c_{i−1}` — but for a deterministic
//! threshold rule that dependency resolves *constructively*: walk the states
//! in order, computing each `β̂_i` from the belief DP under the decisions
//! already made, and decide state `i` on the spot. A bisection over `θ`
//! finds the energy-balanced threshold.
//!
//! The derived policy is stationary and state-indexed, so it slots into the
//! same simulator interface as every other policy. It differs from the
//! clustering heuristic in that its active set need not be an interval —
//! and the `ablation_refined_convergence` bench shows how much (or little)
//! that structural freedom buys.

use evcap_dist::SlotPmf;
use evcap_energy::ConsumptionModel;
use evcap_renewal::{AgeBeliefDp, HazardTable};

use crate::clustering::{ChainEval, ClusterEvaluation, EvalOptions};
use crate::greedy::EnergyBudget;
use crate::policy::{ActivationPolicy, DecisionContext, InfoModel, PolicyTable};
use crate::{PolicyError, Result};

/// The energy-balanced myopic belief-threshold policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MyopicPolicy {
    /// Deterministic activation decisions for states `1..=window`.
    active: Vec<bool>,
    /// The belief threshold that produced them.
    threshold: f64,
    evaluation: ClusterEvaluation,
}

impl MyopicPolicy {
    /// Derives the policy for the given event process and budget.
    ///
    /// `window` bounds the explicitly derived states; beyond it the policy
    /// is aggressive (recovery), mirroring the clustering heuristic's
    /// safeguard.
    ///
    /// A bisection over `θ` (32 steps) finds the lowest feasible threshold.
    /// Each step needs the walk that decides states `1..=window` at `θ` and
    /// evaluates the result, but consecutive steps often share one: a walk
    /// records the largest hazard it read below its threshold and the
    /// smallest at or above it, and any `θ'` strictly above the one and at
    /// most the other splits every hazard the walk read the same way. Such
    /// a `θ'` makes the same decision in slot 1, hence reads the same
    /// hazard in slot 2, and so on by induction: the same `active` vector,
    /// the same evaluation, the same verdict. So the walk is reused, and
    /// the bisection and its accept rule see exactly what fresh walks
    /// would give them.
    ///
    /// # Errors
    ///
    /// * [`PolicyError::BudgetTooSmall`] for a zero budget.
    /// * [`PolicyError::InvalidParameter`] for a zero window.
    pub fn derive(
        pmf: &SlotPmf,
        budget: EnergyBudget,
        consumption: &ConsumptionModel,
        window: usize,
        opts: EvalOptions,
    ) -> Result<Self> {
        if budget.rate() <= 0.0 {
            return Err(PolicyError::BudgetTooSmall { budget: 0.0 });
        }
        if window == 0 {
            return Err(PolicyError::InvalidParameter {
                name: "window",
                value: 0.0,
                expected: "at least one derived state",
            });
        }
        let e = budget.rate();
        // The evaluation stops at the slot cap, the decisions at `window`.
        let table = HazardTable::new(pmf, window.max(opts.max_slots));
        let origin = ChainEval::new(AgeBeliefDp::new(&table), pmf.mean(), consumption, opts);
        let mut chain = origin.clone();
        let mut belief = AgeBeliefDp::new(&table);
        // The last walk: the thresholds that split its hazards its way
        // (`below < θ ≤ above`), and its evaluation. `active` holds its
        // decisions.
        let mut last: Option<(f64, f64, ClusterEvaluation)> = None;
        // Decides states 1..=window at threshold θ and evaluates the result
        // in one walk: the chain being evaluated is exactly the belief the
        // decisions read β̂ from (the hazard does not depend on the slot's
        // own decision, so it is read before stepping). Once the evaluation
        // has converged, a copy of its belief carries on for the remaining
        // decisions.
        let mut derive_at = |theta: f64, active: &mut Vec<bool>| -> ClusterEvaluation {
            if let Some((below, above, eval)) = last {
                if below < theta && theta <= above {
                    return eval;
                }
            }
            evcap_obs::timing::add_count("myopic.walks", 1);
            chain.clone_from(&origin);
            active.clear();
            let (mut below, mut above) = (f64::NEG_INFINITY, f64::INFINITY);
            let mut detached = false;
            for _ in 0..window {
                if !detached && !chain.live() {
                    belief.clone_from(chain.belief());
                    detached = true;
                }
                let stepping = if detached { &belief } else { chain.belief() };
                let hazard = stepping.next_hazard();
                let act = hazard >= theta;
                if act {
                    above = above.min(hazard);
                } else {
                    below = below.max(hazard);
                }
                let c = if act { 1.0 } else { 0.0 };
                if detached {
                    belief.step(c);
                } else {
                    chain.advance(c);
                }
                active.push(act);
            }
            // Beyond the window the policy is aggressive recovery.
            chain.recover();
            let eval = chain.finish().eval;
            last = Some((below, above, eval));
            eval
        };

        // θ = 1+ means "never activate in the window" (recovery only);
        // θ = 0 means aggressive. Bisect for the lowest feasible θ.
        let mut lo = 0.0f64; // most active
        let mut hi = 1.0 + 1e-9; // least active
        let mut active = Vec::with_capacity(window);
        let mut chosen: Option<(f64, Vec<bool>, ClusterEvaluation)> = None;
        for _ in 0..32 {
            let mid = 0.5 * (lo + hi);
            let eval = derive_at(mid, &mut active);
            if eval.discharge_rate <= e + 1e-9 {
                let better = chosen
                    .as_ref()
                    .map(|(_, _, b)| eval.capture_probability > b.capture_probability - 1e-12)
                    .unwrap_or(true);
                if better {
                    chosen = Some((mid, active.clone(), eval));
                }
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let (threshold, active, evaluation) = chosen.unwrap_or_else(|| {
            // Even the all-sleep window overshoots (recovery alone is too
            // expensive): fall back to the least active variant.
            let eval = derive_at(1.0 + 1e-9, &mut active);
            (1.0, active, eval)
        });
        Ok(Self {
            active,
            threshold,
            evaluation,
        })
    }

    /// Reassembles a policy from previously solved parts — the fields a
    /// persisted artifact recorded — without re-running the belief DP.
    ///
    /// This is the rehydration door used by the scenario layer when loading
    /// artifacts from the on-disk store; validation here keeps a corrupted
    /// record from materializing as a malformed policy.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidParameter`] for an empty window, a
    /// non-finite or out-of-range threshold, or evaluation fields outside
    /// their analytic ranges.
    pub fn from_parts(
        active: Vec<bool>,
        threshold: f64,
        evaluation: ClusterEvaluation,
    ) -> Result<Self> {
        if active.is_empty() {
            return Err(PolicyError::InvalidParameter {
                name: "window",
                value: 0.0,
                expected: "at least one derived state",
            });
        }
        // The bisection keeps θ within [0, 1 + 1e-9] (the "never activate"
        // sentinel sits just above 1).
        if !(threshold.is_finite() && (0.0..=1.0 + 1e-6).contains(&threshold)) {
            return Err(PolicyError::InvalidParameter {
                name: "threshold",
                value: threshold,
                expected: "a belief threshold in [0, 1]",
            });
        }
        let e = &evaluation;
        let capture_ok =
            e.capture_probability.is_finite() && (0.0..=1.0).contains(&e.capture_probability);
        let discharge_ok = e.discharge_rate.is_finite() && e.discharge_rate >= 0.0;
        // `expected_cycle` may legitimately be +∞ (a policy that never
        // captures); it must still be positive and non-NaN.
        let cycle_ok = !e.expected_cycle.is_nan() && e.expected_cycle > 0.0;
        let survival_ok = e.truncated_survival.is_finite() && e.truncated_survival >= 0.0;
        if !(capture_ok && discharge_ok && cycle_ok && survival_ok) {
            return Err(PolicyError::InvalidParameter {
                name: "evaluation",
                value: e.capture_probability,
                expected: "analytic evaluation fields within their ranges",
            });
        }
        Ok(Self {
            active,
            threshold,
            evaluation,
        })
    }

    /// The belief threshold the derivation converged to.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The derived activation decision for state `f_i`.
    ///
    /// # Panics
    ///
    /// Panics if `state == 0`; states are 1-based.
    pub fn active(&self, state: usize) -> bool {
        assert!(state >= 1, "states are 1-based");
        self.active.get(state - 1).copied().unwrap_or(true)
    }

    /// The analytic evaluation recorded at derivation time.
    pub fn evaluation(&self) -> ClusterEvaluation {
        self.evaluation
    }
}

impl ActivationPolicy for MyopicPolicy {
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        if self.active(ctx.state) {
            1.0
        } else {
            0.0
        }
    }

    fn info_model(&self) -> InfoModel {
        InfoModel::Partial
    }

    fn label(&self) -> String {
        format!("myopic-PI(θ={:.4})", self.threshold)
    }

    fn planned_discharge_rate(&self) -> Option<f64> {
        Some(self.evaluation.discharge_rate)
    }

    fn table(&self) -> Option<PolicyTable> {
        let probs = self
            .active
            .iter()
            .map(|&a| if a { 1.0 } else { 0.0 })
            .collect();
        // Beyond the derived window the policy is aggressive recovery.
        Some(PolicyTable::new(probs, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::ClusteringOptimizer;
    use evcap_dist::{Discretizer, SlotPmf, Weibull};
    use proptest::prelude::*;

    fn consumption() -> ConsumptionModel {
        ConsumptionModel::paper_defaults()
    }

    /// The derivation [`MyopicPolicy::derive`] replaced: the same
    /// bisection and accept rule with a fresh walk at every step. `derive`
    /// must match it bit for bit.
    fn derive_reference(
        pmf: &SlotPmf,
        budget: EnergyBudget,
        consumption: &ConsumptionModel,
        window: usize,
        opts: EvalOptions,
    ) -> MyopicPolicy {
        let e = budget.rate();
        let table = HazardTable::new(pmf, window.max(opts.max_slots));
        let walk = |theta: f64| -> (Vec<bool>, ClusterEvaluation) {
            let mut chain = ChainEval::new(AgeBeliefDp::new(&table), pmf.mean(), consumption, opts);
            let mut belief = AgeBeliefDp::new(&table);
            let mut active = Vec::new();
            let mut detached = false;
            for _ in 0..window {
                if !detached && !chain.live() {
                    belief = chain.belief().clone();
                    detached = true;
                }
                let stepping = if detached { &belief } else { chain.belief() };
                let act = stepping.next_hazard() >= theta;
                let c = if act { 1.0 } else { 0.0 };
                if detached {
                    belief.step(c);
                } else {
                    chain.advance(c);
                }
                active.push(act);
            }
            chain.recover();
            (active, chain.finish().eval)
        };
        let (mut lo, mut hi) = (0.0f64, 1.0 + 1e-9);
        let mut chosen: Option<(f64, Vec<bool>, ClusterEvaluation)> = None;
        for _ in 0..32 {
            let mid = 0.5 * (lo + hi);
            let (active, eval) = walk(mid);
            if eval.discharge_rate <= e + 1e-9 {
                let better = chosen.as_ref().is_none_or(|(_, _, b)| {
                    eval.capture_probability > b.capture_probability - 1e-12
                });
                if better {
                    chosen = Some((mid, active, eval));
                }
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let (threshold, active, evaluation) = chosen.unwrap_or_else(|| {
            let (active, eval) = walk(1.0 + 1e-9);
            (1.0, active, eval)
        });
        MyopicPolicy {
            active,
            threshold,
            evaluation,
        }
    }

    /// Every field of a derived policy, floats as bits.
    fn policy_bits(p: &MyopicPolicy) -> (Vec<bool>, [u64; 5]) {
        let e = p.evaluation;
        (
            p.active.clone(),
            [
                p.threshold.to_bits(),
                e.capture_probability.to_bits(),
                e.discharge_rate.to_bits(),
                e.expected_cycle.to_bits(),
                e.truncated_survival.to_bits(),
            ],
        )
    }

    #[test]
    fn walk_reuse_respects_a_hazard_equal_to_the_threshold() {
        // β̂_1 equals the bisection's second midpoint exactly (the first
        // step lowers θ from ~½ to ~¼), so a walk at θ ≈ ½ reads a hazard
        // that the next θ sits right on: that θ acts where the walk did
        // not, and must walk afresh.
        let second_mid = 0.5 * (0.5 * (1.0 + 1e-9));
        let pmf = SlotPmf::from_hazards(&[second_mid, 0.1]).unwrap();
        for k in 1..=60 {
            let budget = EnergyBudget::per_slot(0.05 * f64::from(k));
            let opts = EvalOptions::default();
            let got = MyopicPolicy::derive(&pmf, budget, &consumption(), 12, opts).unwrap();
            let want = derive_reference(&pmf, budget, &consumption(), 12, opts);
            assert_eq!(
                policy_bits(&got),
                policy_bits(&want),
                "e = {}",
                budget.rate()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn walk_reuse_matches_fresh_walks(
            hazards in collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 0..40),
            tail in 0.02f64..1.0,
            e in prop_oneof![0.02f64..0.6, 0.02f64..0.6, 0.6f64..3.0],
            window in 1usize..120,
            max_slots in prop_oneof![Just(20_000usize), 20usize..400],
        ) {
            let mut h = hazards;
            h.push(tail);
            let pmf = SlotPmf::from_hazards(&h).unwrap();
            let opts = EvalOptions { survival_eps: 1e-10, max_slots };
            let budget = EnergyBudget::per_slot(e);
            let got = MyopicPolicy::derive(&pmf, budget, &consumption(), window, opts).unwrap();
            let want = derive_reference(&pmf, budget, &consumption(), window, opts);
            prop_assert_eq!(policy_bits(&got), policy_bits(&want));
        }
    }

    #[test]
    fn activates_exactly_on_deterministic_gap() {
        let pmf = SlotPmf::from_pmf(vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        let policy = MyopicPolicy::derive(
            &pmf,
            EnergyBudget::per_slot(7.0 / 4.0),
            &consumption(),
            8,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(policy.active(4));
        assert!(!policy.active(1) && !policy.active(3));
        assert!((policy.evaluation().capture_probability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn respects_budget_on_weibull() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        for e in [0.2, 0.5, 1.0] {
            let policy = MyopicPolicy::derive(
                &pmf,
                EnergyBudget::per_slot(e),
                &consumption(),
                120,
                EvalOptions::default(),
            )
            .unwrap();
            assert!(
                policy.evaluation().discharge_rate <= e + 1e-6,
                "e={e}: {}",
                policy.evaluation().discharge_rate
            );
        }
    }

    #[test]
    fn active_set_is_an_interval_for_increasing_hazard() {
        // With an IFR process and no misses inside the window, β̂ rises, so
        // the threshold rule yields a contiguous active window — it should
        // essentially agree with the clustering structure.
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let policy = MyopicPolicy::derive(
            &pmf,
            EnergyBudget::per_slot(0.5),
            &consumption(),
            120,
            EvalOptions::default(),
        )
        .unwrap();
        let first = (1..=120).find(|&i| policy.active(i));
        let some_first = first.expect("activates somewhere");
        // After the first active state, activity persists until the window
        // edge or the hazard peak has passed well beyond the support.
        let mut gaps = 0;
        let mut in_active = false;
        for i in 1..=90 {
            match (policy.active(i), in_active) {
                (true, _) => in_active = true,
                (false, true) => {
                    gaps += 1;
                    in_active = false;
                }
                _ => {}
            }
        }
        assert!(
            gaps <= 1,
            "active set fragmented: {gaps} gaps, first {some_first}"
        );
    }

    #[test]
    fn competitive_with_clustering() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let budget = EnergyBudget::per_slot(0.5);
        let myopic =
            MyopicPolicy::derive(&pmf, budget, &consumption(), 160, EvalOptions::default())
                .unwrap();
        let (_, clustering) = ClusteringOptimizer::new(budget)
            .optimize(&pmf, &consumption())
            .unwrap();
        // The myopic rule is a credible baseline: within 10% of clustering.
        assert!(
            myopic.evaluation().capture_probability > 0.9 * clustering.capture_probability,
            "myopic {} vs clustering {}",
            myopic.evaluation().capture_probability,
            clustering.capture_probability
        );
    }

    #[test]
    fn recorded_evaluation_is_a_fresh_walk_of_the_derived_policy() {
        // A window short of the pmf's horizon, and one past the slot cap:
        // the derivation's hazard table must reach the end of both the
        // evaluation and the decisions.
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let bits = |e: ClusterEvaluation| {
            [
                e.capture_probability.to_bits(),
                e.discharge_rate.to_bits(),
                e.expected_cycle.to_bits(),
                e.truncated_survival.to_bits(),
            ]
        };
        for (window, max_slots) in [(20, 20_000), (100, 40)] {
            let opts = EvalOptions {
                survival_eps: 1e-10,
                max_slots,
            };
            let policy = MyopicPolicy::derive(
                &pmf,
                EnergyBudget::per_slot(0.5),
                &consumption(),
                window,
                opts,
            )
            .unwrap();
            let fresh = crate::clustering::evaluate_partial_info(
                &pmf,
                |i| if policy.active(i) { 1.0 } else { 0.0 },
                &consumption(),
                opts,
            );
            assert_eq!(bits(policy.evaluation()), bits(fresh), "window {window}");
        }
    }

    #[test]
    fn from_parts_round_trips_a_derived_policy() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(40.0, 3.0).unwrap())
            .unwrap();
        let policy = MyopicPolicy::derive(
            &pmf,
            EnergyBudget::per_slot(0.5),
            &consumption(),
            120,
            EvalOptions::default(),
        )
        .unwrap();
        let active: Vec<bool> = (1..=120).map(|i| policy.active(i)).collect();
        let rebuilt =
            MyopicPolicy::from_parts(active, policy.threshold(), policy.evaluation()).unwrap();
        assert_eq!(policy, rebuilt);
    }

    #[test]
    fn from_parts_rejects_corrupted_fields() {
        let eval = ClusterEvaluation {
            capture_probability: 0.8,
            discharge_rate: 0.5,
            expected_cycle: 50.0,
            truncated_survival: 0.0,
        };
        assert!(MyopicPolicy::from_parts(vec![true], 0.5, eval).is_ok());
        assert!(MyopicPolicy::from_parts(Vec::new(), 0.5, eval).is_err());
        assert!(MyopicPolicy::from_parts(vec![true], f64::NAN, eval).is_err());
        assert!(MyopicPolicy::from_parts(vec![true], 2.0, eval).is_err());
        let mut bad = eval;
        bad.capture_probability = 1.5;
        assert!(MyopicPolicy::from_parts(vec![true], 0.5, bad).is_err());
        let mut bad = eval;
        bad.discharge_rate = -1.0;
        assert!(MyopicPolicy::from_parts(vec![true], 0.5, bad).is_err());
        let mut bad = eval;
        bad.expected_cycle = f64::NAN;
        assert!(MyopicPolicy::from_parts(vec![true], 0.5, bad).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let pmf = SlotPmf::from_pmf(vec![1.0]).unwrap();
        assert!(matches!(
            MyopicPolicy::derive(
                &pmf,
                EnergyBudget::per_slot(0.0),
                &consumption(),
                8,
                EvalOptions::default()
            ),
            Err(PolicyError::BudgetTooSmall { .. })
        ));
        assert!(matches!(
            MyopicPolicy::derive(
                &pmf,
                EnergyBudget::per_slot(1.0),
                &consumption(),
                0,
                EvalOptions::default()
            ),
            Err(PolicyError::InvalidParameter { .. })
        ));
    }
}
