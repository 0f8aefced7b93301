//! Exact age-belief propagation under a censoring activation policy.
//!
//! This module is the slotted-time replacement for the paper's Appendix B.
//! After a sensor captures an event (renewing its schedule at slot 0), the
//! partial-information chain needs, for every subsequent slot `i`, the
//! probability `β̂_i` that an event occurs in slot `i` **given** that the
//! sensor has not captured anything in slots `1..i` — where "not captured"
//! means: in every slot the sensor was active, no event occurred; in slots it
//! slept, anything may have happened.
//!
//! Because the event process is renewal, the only latent state is the *age*
//! `a` — the number of slots since the last actual event (captured or
//! missed). Conditioned on the age, an event occurs in the current slot with
//! the pmf's hazard `β_a`. The belief over ages is propagated exactly:
//!
//! * event & sensor active (prob `β_a · c_i`): **capture** — the mass leaves
//!   the "no capture yet" chain;
//! * event & sensor asleep (prob `β_a · (1 − c_i)`): **miss** — the age
//!   resets, so the mass moves to the bucket "last event at slot `i`";
//! * no event (prob `1 − β_a`): the age grows by one.
//!
//! Keying buckets by the *slot of the last actual event* (rather than the
//! age) keeps the representation stable: only slots with `c_i < 1` can ever
//! create a new bucket, so the belief stays as small as the policy's cooling
//! region regardless of how long the chain runs.

use evcap_dist::SlotPmf;

/// Belief mass below which a bucket is dropped (the pruned mass is tracked
/// and reported via [`AgeBeliefDp::pruned_mass`]).
const PRUNE_EPS: f64 = 1e-15;

/// The inter-arrival hazards `β_a` of a pmf, tabulated by age once so a
/// belief walk reads each `β_a` with one load.
///
/// A walk of `n` slots reads ages `1..=n` only, so a table is built for
/// the longest walk it will serve (`max_age`). Ages past the pmf's horizon
/// share one constant hazard (the geometric tail's, or `1.0` once the
/// support is exhausted), so a table never holds more than `horizon + 1`
/// entries, and once it reaches that far every later age reads the last
/// one. Every entry is [`SlotPmf::hazard`] of its age, so a table-driven
/// walk is bit-identical to one that asks the pmf.
///
/// Tables are built per search or per walk and never stored with the pmf:
/// a heavy-tailed pmf runs to 65,536 slots, and serve caches hold up to
/// 1,024 artifacts.
///
/// # Example
///
/// ```
/// use evcap_dist::SlotPmf;
/// use evcap_renewal::HazardTable;
///
/// # fn main() -> Result<(), evcap_dist::DistError> {
/// let pmf = SlotPmf::from_pmf(vec![0.2, 0.3, 0.5])?;
/// let table = HazardTable::new(&pmf, 10);
/// for age in 1..=10 {
///     assert_eq!(table.hazard(age).to_bits(), pmf.hazard(age).to_bits());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HazardTable {
    /// `betas[k]` is `β_{k+1}`.
    betas: Vec<f64>,
    /// `horizon + 1`, the first age of the constant tail.
    tail: usize,
}

impl HazardTable {
    /// Tabulates `β_1..=β_{max_age}` of `pmf`, stopping early at the
    /// constant tail (`horizon + 1`).
    pub fn new(pmf: &SlotPmf, max_age: usize) -> Self {
        let tail = pmf.horizon() + 1;
        Self {
            betas: pmf.hazards(max_age.min(tail)),
            tail,
        }
    }

    /// The hazard `β_age`, equal to [`SlotPmf::hazard`].
    ///
    /// # Panics
    ///
    /// Panics if `age` is `0`, or past the table's `max_age` while that
    /// falls short of the constant tail.
    #[inline]
    pub fn hazard(&self, age: usize) -> f64 {
        self.betas[age.min(self.tail) - 1]
    }
}

/// The outcome of advancing the belief by one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefStep {
    /// The slot index `i` that was just processed (1-based, counted from the
    /// renewing capture).
    pub slot: usize,
    /// `β̂_i`: probability that an event occurs in slot `i`, conditioned on
    /// no capture in slots `1..i`.
    pub hazard: f64,
    /// Joint probability of reaching slot `i` uncaptured *and* capturing in
    /// it: `S_i · c_i · β̂_i` where `S_i` is the chain survival.
    pub capture_mass: f64,
    /// Chain survival *after* this slot: `P(no capture in slots 1..=i)`.
    pub survival: f64,
}

/// Exact belief over the renewal process age, censored by an activation
/// policy; yields the conditional hazards `β̂_i` of the paper's
/// partial-information chain.
///
/// The walk reads `β_a` from a [`HazardTable`] it borrows, which must
/// reach the walk's last slot: a walk of `n` slots needs
/// `HazardTable::new(pmf, n)`. Searches build one table and run many walks
/// over it.
///
/// # Example
///
/// With a sensor that is always active (`c ≡ 1`), no event is ever missed,
/// so `β̂_i` equals the plain inter-arrival hazard `β_i`:
///
/// ```
/// use evcap_dist::SlotPmf;
/// use evcap_renewal::{AgeBeliefDp, HazardTable};
///
/// # fn main() -> Result<(), evcap_dist::DistError> {
/// let pmf = SlotPmf::from_pmf(vec![0.2, 0.5, 0.3])?;
/// let hazards = HazardTable::new(&pmf, 3);
/// let mut dp = AgeBeliefDp::new(&hazards);
/// for i in 1..=3 {
///     let step = dp.step(1.0);
///     assert!((step.hazard - pmf.hazard(i)).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AgeBeliefDp<'a> {
    hazards: &'a HazardTable,
    /// `(slot of last actual event, joint mass)`; masses sum to the chain
    /// survival `P(no capture yet)` (up to pruning).
    buckets: Vec<(usize, f64)>,
    /// The next slot to process (1-based).
    slot: usize,
    /// Chain survival after the last processed slot: the bucket masses
    /// summed in bucket order.
    survival: f64,
    /// Total mass dropped by pruning, for diagnostics.
    pruned: f64,
}

impl Clone for AgeBeliefDp<'_> {
    fn clone(&self) -> Self {
        Self {
            buckets: self.buckets.clone(),
            ..*self
        }
    }

    /// Copies `source` into `self`, reusing the bucket allocation — the
    /// way searches restart walks from a shared prefix without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.hazards = source.hazards;
        self.buckets.clone_from(&source.buckets);
        self.slot = source.slot;
        self.survival = source.survival;
        self.pruned = source.pruned;
    }
}

impl<'a> AgeBeliefDp<'a> {
    /// Starts a fresh chain: an event was captured at slot 0, so the age is
    /// known exactly.
    pub fn new(hazards: &'a HazardTable) -> Self {
        Self {
            hazards,
            buckets: vec![(0, 1.0)],
            slot: 1,
            survival: 1.0,
            pruned: 0.0,
        }
    }

    /// Advances one slot under activation probability `c ∈ [0, 1]`, returning
    /// the slot's conditional hazard and capture mass.
    ///
    /// One pass over the buckets: each bucket splits its mass into events
    /// (captured with probability `c`, missed otherwise) and survivors, is
    /// kept or pruned, and adds to the remaining mass in place. The opening
    /// total is the previous step's remaining mass (the same buckets summed
    /// in the same order), and the remaining sum starts at `-0.0` like
    /// `Iterator::<f64>::sum`, so a fully resolved chain keeps its signed
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `[0, 1]`, or if the hazard table does not
    /// reach this slot.
    pub fn step(&mut self, c: f64) -> BeliefStep {
        assert!(
            (0.0..=1.0).contains(&c) && c.is_finite(),
            "activation probability must lie in [0, 1], got {c}"
        );
        let i = self.slot;
        let hazards = self.hazards;
        let total = self.survival;
        let miss = 1.0 - c;
        let mut event_mass = 0.0;
        let mut missed_mass = 0.0;
        let mut remaining = -0.0;
        let mut kept = 0;
        for k in 0..self.buckets.len() {
            let (last_event, mass) = self.buckets[k];
            let event = mass * hazards.hazard(i - last_event);
            event_mass += event;
            missed_mass += event * miss;
            let left = mass - event;
            if left >= PRUNE_EPS {
                self.buckets[kept] = (last_event, left);
                kept += 1;
                remaining += left;
            }
        }
        self.buckets.truncate(kept);
        let capture_mass = event_mass * c;
        // Missed events reset the age: their mass opens the bucket "last
        // event at slot i" unless it is already negligible.
        if missed_mass >= PRUNE_EPS {
            self.buckets.push((i, missed_mass));
            remaining += missed_mass;
        }
        let expected_remaining = total - capture_mass;
        self.pruned += (expected_remaining - remaining).max(0.0);
        self.survival = remaining;
        self.slot = i + 1;
        BeliefStep {
            slot: i,
            hazard: conditional_hazard(event_mass, total),
            capture_mass,
            survival: remaining,
        }
    }

    /// The conditional hazard `β̂` of the next slot, without advancing:
    /// bit-equal to `self.clone().step(c).hazard` for every `c` (the
    /// hazard does not depend on the slot's own activation decision).
    pub fn next_hazard(&self) -> f64 {
        let i = self.slot;
        let mut event_mass = 0.0;
        for &(last_event, mass) in &self.buckets {
            event_mass += mass * self.hazards.hazard(i - last_event);
        }
        conditional_hazard(event_mass, self.survival)
    }

    /// Chain survival after the last processed slot:
    /// `P(no capture in slots 1..slot)`.
    pub fn survival(&self) -> f64 {
        self.survival
    }

    /// The next slot [`step`](Self::step) will process.
    pub fn next_slot(&self) -> usize {
        self.slot
    }

    /// Number of live belief buckets (bounded by 1 + the number of processed
    /// slots with `c < 1`).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total probability mass dropped by pruning so far (diagnostic; should
    /// stay ≪ any tolerance used downstream).
    pub fn pruned_mass(&self) -> f64 {
        self.pruned
    }

    /// Runs the DP for `horizon` slots under the per-slot activation
    /// probabilities given by `policy(i)`, collecting every step.
    pub fn run(pmf: &SlotPmf, policy: impl Fn(usize) -> f64, horizon: usize) -> Vec<BeliefStep> {
        let hazards = HazardTable::new(pmf, horizon);
        let mut dp = AgeBeliefDp::new(&hazards);
        (0..horizon)
            .map(|_| dp.step(policy(dp.next_slot())))
            .collect()
    }
}

/// `β̂ = event mass / survival`, clamped; `0` once nothing survives.
fn conditional_hazard(event_mass: f64, total: f64) -> f64 {
    if total > 0.0 {
        (event_mass / total).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::renewal_fn::RenewalFunction;
    use evcap_dist::{Discretizer, MarkovEvents, SlotPmf, Weibull};
    use proptest::prelude::*;

    impl AgeBeliefDp<'_> {
        /// The four-pass step the fused [`AgeBeliefDp::step`] replaced
        /// (sum, split, retain, re-sum), asking `pmf` for each hazard as
        /// it did, kept as the reference the table-driven step must match
        /// bit for bit.
        fn step_reference(&mut self, c: f64, pmf: &SlotPmf) -> BeliefStep {
            let i = self.slot;
            let total: f64 = self.buckets.iter().map(|&(_, m)| m).sum();
            let mut event_mass = 0.0;
            let mut missed_mass = 0.0;
            for (last_event, mass) in &mut self.buckets {
                let age = i - *last_event;
                let beta = pmf.hazard(age);
                let event = *mass * beta;
                event_mass += event;
                missed_mass += event * (1.0 - c);
                *mass -= event;
            }
            let capture_mass = event_mass * c;
            if missed_mass > 0.0 {
                self.buckets.push((i, missed_mass));
            }
            let pruned_before = self.pruned;
            self.buckets.retain(|&(_, m)| m >= PRUNE_EPS);
            let remaining: f64 = self.buckets.iter().map(|&(_, m)| m).sum();
            let expected_remaining = total - capture_mass;
            self.pruned = pruned_before + (expected_remaining - remaining).max(0.0);
            self.survival = remaining;
            self.slot = i + 1;
            BeliefStep {
                slot: i,
                hazard: if total > 0.0 {
                    (event_mass / total).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                capture_mass,
                survival: self.survival,
            }
        }

        /// Every piece of state, as bits.
        fn state_bits(&self) -> (Vec<(usize, u64)>, usize, u64, u64) {
            (
                self.buckets
                    .iter()
                    .map(|&(s, m)| (s, m.to_bits()))
                    .collect(),
                self.slot,
                self.survival.to_bits(),
                self.pruned.to_bits(),
            )
        }
    }

    fn step_bits(s: &BeliefStep) -> (usize, u64, u64, u64) {
        (
            s.slot,
            s.hazard.to_bits(),
            s.capture_mass.to_bits(),
            s.survival.to_bits(),
        )
    }

    /// Random event processes: hazard-specified (geometric tail, never
    /// resolves) and bounded-support pmfs (chains can resolve fully, so
    /// buckets empty out and pruning fires).
    fn any_pmf() -> impl Strategy<Value = SlotPmf> {
        prop_oneof![
            collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 1..40)
                .prop_map(|h| SlotPmf::from_hazards(&h).unwrap()),
            collection::vec(prop_oneof![Just(0.0), 0.0f64..1.0], 1..30).prop_map(|m| {
                let sum: f64 = m.iter().sum();
                let masses = if sum > 0.0 {
                    m.iter().map(|x| x / sum).collect()
                } else {
                    vec![1.0]
                };
                SlotPmf::from_pmf(masses).unwrap()
            }),
        ]
    }

    fn any_activations() -> impl Strategy<Value = Vec<f64>> {
        collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0], 1..300)
    }

    proptest! {
        #[test]
        fn fused_step_matches_the_four_pass_reference(
            pmf in any_pmf(),
            cs in any_activations(),
        ) {
            // Sized to the walk: shorter than some pmfs' horizons.
            let hazards = HazardTable::new(&pmf, cs.len());
            let mut reference = AgeBeliefDp::new(&hazards);
            let mut fused = AgeBeliefDp::new(&hazards);
            for &c in &cs {
                let want = step_bits(&reference.step_reference(c, &pmf));
                prop_assert_eq!(step_bits(&fused.step(c)), want);
                prop_assert_eq!(fused.state_bits(), reference.state_bits());
            }
        }

        #[test]
        fn next_hazard_matches_a_probing_step(
            pmf in any_pmf(),
            cs in any_activations(),
        ) {
            let hazards = HazardTable::new(&pmf, cs.len());
            let mut dp = AgeBeliefDp::new(&hazards);
            for &c in &cs {
                let probe = dp.clone().step(c).hazard.to_bits();
                prop_assert_eq!(dp.next_hazard().to_bits(), probe);
                dp.step(c);
            }
        }

        #[test]
        fn hazard_table_matches_the_pmf(
            pmf in any_pmf(),
            max_age in 0usize..60,
            extra in 1usize..50,
        ) {
            let table = HazardTable::new(&pmf, max_age);
            // A table that reaches the constant tail answers every age.
            let reach = if max_age > pmf.horizon() {
                pmf.horizon() + extra
            } else {
                max_age
            };
            for age in 1..=reach {
                prop_assert_eq!(table.hazard(age).to_bits(), pmf.hazard(age).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_short_table_refuses_ages_past_its_end() {
        let pmf = SlotPmf::from_pmf(vec![0.2, 0.3, 0.5]).unwrap();
        HazardTable::new(&pmf, 2).hazard(3);
    }

    #[test]
    fn clone_from_reuses_and_matches_clone() {
        let pmf = SlotPmf::from_pmf(vec![0.3, 0.3, 0.4]).unwrap();
        let hazards = HazardTable::new(&pmf, 7);
        let mut long = AgeBeliefDp::new(&hazards);
        for _ in 0..6 {
            long.step(0.0);
        }
        let mut scratch = long.clone();
        let mut short = AgeBeliefDp::new(&hazards);
        short.step(0.5);
        scratch.clone_from(&short);
        assert_eq!(scratch.state_bits(), short.state_bits());
        assert_eq!(
            step_bits(&scratch.step(1.0)),
            step_bits(&short.clone().step(1.0))
        );
    }

    #[test]
    fn always_active_reproduces_plain_hazard() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(12.0, 3.0).unwrap())
            .unwrap();
        let steps = AgeBeliefDp::run(&pmf, |_| 1.0, 30);
        for step in &steps {
            assert!(
                (step.hazard - pmf.hazard(step.slot)).abs() < 1e-12,
                "slot {}",
                step.slot
            );
        }
    }

    #[test]
    fn never_active_reproduces_renewal_density() {
        // With no observations, P(event in slot i) is the renewal mass u_i.
        let pmf = SlotPmf::from_pmf(vec![0.3, 0.3, 0.4]).unwrap();
        let renewal = RenewalFunction::new(&pmf, 40);
        let steps = AgeBeliefDp::run(&pmf, |_| 0.0, 40);
        for step in &steps {
            assert!(
                (step.hazard - renewal.mass(step.slot)).abs() < 1e-9,
                "slot {}: {} vs {}",
                step.slot,
                step.hazard,
                renewal.mass(step.slot)
            );
            // Nothing is ever captured.
            assert_eq!(step.capture_mass, 0.0);
            assert!((step.survival - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capture_masses_and_survival_are_consistent() {
        let pmf = SlotPmf::from_pmf(vec![0.5, 0.5]).unwrap();
        let hazards = HazardTable::new(&pmf, 200);
        let mut dp = AgeBeliefDp::new(&hazards);
        let mut total_captured = 0.0;
        let mut prev_survival = 1.0;
        for _ in 0..200 {
            let step = dp.step(0.7);
            total_captured += step.capture_mass;
            // capture_mass = prev_survival · c · hazard.
            assert!((step.capture_mass - prev_survival * 0.7 * step.hazard).abs() < 1e-12);
            prev_survival = step.survival;
        }
        // Eventually everything is captured.
        assert!((total_captured + dp.survival() - 1.0).abs() < 1e-9);
        assert!(dp.survival() < 1e-9);
    }

    #[test]
    fn markov_chain_hazards_match_closed_form() {
        // For the two-state Markov renewal process with an always-active
        // sensor, β̂_1 = a and β̂_k = 1 − b thereafter.
        let chain = MarkovEvents::new(0.3, 0.6).unwrap();
        let pmf = chain.to_slot_pmf().unwrap();
        let steps = AgeBeliefDp::run(&pmf, |_| 1.0, 10);
        assert!((steps[0].hazard - 0.3).abs() < 1e-12);
        for step in &steps[1..] {
            assert!((step.hazard - 0.4).abs() < 1e-12, "slot {}", step.slot);
        }
    }

    #[test]
    fn bucket_count_bounded_by_cooling_slots() {
        let pmf = Discretizer::new()
            .discretize(&Weibull::new(12.0, 3.0).unwrap())
            .unwrap();
        // Policy: sleep in slots 1..=9, active afterwards.
        let hazards = HazardTable::new(&pmf, 200);
        let mut dp = AgeBeliefDp::new(&hazards);
        for _ in 0..200 {
            let c = if dp.next_slot() <= 9 { 0.0 } else { 1.0 };
            dp.step(c);
        }
        // Buckets: the initial one plus at most one per cooling slot.
        assert!(dp.bucket_count() <= 10, "{}", dp.bucket_count());
        assert!(dp.pruned_mass() < 1e-9);
    }

    #[test]
    fn missed_events_raise_later_hazard() {
        // Deterministic gaps of 3: if the sensor sleeps through slot 3, the
        // event recurs at slot 6 with certainty.
        let pmf = SlotPmf::from_pmf(vec![0.0, 0.0, 1.0]).unwrap();
        let steps = AgeBeliefDp::run(&pmf, |i| if i <= 3 { 0.0 } else { 1.0 }, 6);
        assert!((steps[2].hazard - 1.0).abs() < 1e-12); // slot 3: missed
        assert!((steps[3].hazard - 0.0).abs() < 1e-12);
        assert!((steps[5].hazard - 1.0).abs() < 1e-12); // slot 6: captured
        assert!(steps[5].survival < 1e-12);
    }

    #[test]
    #[should_panic(expected = "activation probability")]
    fn step_rejects_invalid_probability() {
        let pmf = SlotPmf::from_pmf(vec![1.0]).unwrap();
        let hazards = HazardTable::new(&pmf, 1);
        let mut dp = AgeBeliefDp::new(&hazards);
        dp.step(1.5);
    }
}
