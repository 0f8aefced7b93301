//! The activation-policy abstraction shared by analysis and simulation.

use std::fmt;

/// Which observation model a policy is designed for.
///
/// The simulator uses this to decide what the policy's *state index* means:
/// slots since the last **event** (full information — the sensor always
/// learns about events after the fact) or slots since the last **captured**
/// event (partial information — missed events are invisible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InfoModel {
    /// The sensor learns about every event at the end of its slot.
    Full,
    /// The sensor learns about an event only if it was active in its slot.
    Partial,
}

impl fmt::Display for InfoModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfoModel::Full => write!(f, "full information"),
            InfoModel::Partial => write!(f, "partial information"),
        }
    }
}

/// Everything a policy may condition its per-slot decision on.
///
/// The paper's policies are *stationary* in the renewal state, but the
/// periodic baseline conditions on wall-clock time and the aggressive
/// baseline on the battery, so the context carries all three.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionContext {
    /// Global slot number `t ≥ 1`.
    pub slot: u64,
    /// Renewal state index `i ≥ 1`: slots since the last event (full
    /// information) or since the last captured event (partial information).
    pub state: usize,
    /// Battery fill fraction in `[0, 1]` (1 under the energy assumption).
    pub battery_fraction: f64,
}

impl DecisionContext {
    /// Context for analytic evaluation under the energy assumption: only the
    /// renewal state matters and the battery is treated as always sufficient.
    pub fn stationary(state: usize) -> Self {
        Self {
            slot: state as u64,
            state,
            battery_fraction: 1.0,
        }
    }
}

/// How the simulator's activation coin treats a state's probability `p`.
///
/// The coin draws nothing at the boundary probabilities, so only a
/// fractional `p` costs a random draw. [`PolicyTable::run`] groups states
/// into maximal runs of one class; the simulator walks a quiet or hot run
/// in bulk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotClass {
    /// `p` is not positive (`!(p > 0)`, so `-0.0` too): the sensor never
    /// wants to activate.
    Quiet,
    /// `p ≥ 1`: the sensor always wants to activate.
    Hot,
    /// `0 < p < 1`: one coin per decision.
    Mixed,
}

impl SlotClass {
    /// The class of probability `p`, by the coin's own comparisons.
    #[inline]
    pub fn of(p: f64) -> Self {
        if p > 0.0 {
            if p >= 1.0 {
                SlotClass::Hot
            } else {
                SlotClass::Mixed
            }
        } else {
            SlotClass::Quiet
        }
    }
}

/// A policy's state-indexed activation probabilities compiled into a flat
/// array, plus the constant probability shared by every state beyond it.
///
/// Stationary policies (everything except the wall-clock periodic baseline)
/// are pure functions of the renewal state, so the per-slot hot loop can
/// replace a virtual [`ActivationPolicy::probability`] call with one bounds
/// check and an array load. The table must agree *bit-for-bit* with the
/// policy it was compiled from — the batched simulation layer relies on that
/// to keep table-driven runs identical to dispatch-driven ones.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    probs: Vec<f64>,
    tail: f64,
    /// Per explicit state: the length of its class's run from there,
    /// `u32::MAX` for a run that extends through the tail.
    runs: Vec<(SlotClass, u32)>,
}

impl PolicyTable {
    /// Largest explicit-state count a [`table`](ActivationPolicy::table)
    /// implementation should materialize.
    ///
    /// Every policy in this crate keeps its interesting region within a few
    /// hundred states, but ablation variants push region boundaries toward
    /// `usize::MAX` to make a region unreachable; compiling that staircase
    /// literally would allocate gigabytes per run. Policies whose explicit
    /// region exceeds this bound return `None` and keep dynamic dispatch.
    pub const MAX_EXPLICIT_STATES: usize = 1 << 16;

    /// Builds a table mapping state `i` (1-based) to `probs[i - 1]` for
    /// `i ≤ probs.len()` and to `tail` beyond, and classifies its runs.
    ///
    /// # Panics
    ///
    /// Panics if any entry (or the tail) is not a probability in `[0, 1]`.
    pub fn new(probs: Vec<f64>, tail: f64) -> Self {
        // The range check also rejects NaN and the infinities.
        let valid = |p: f64| (0.0..=1.0).contains(&p);
        // One pass back from the tail checks each entry and classifies it:
        // a state continues the run after it when the classes agree.
        // Finite lengths stop short of the sentinel.
        let mut runs = vec![(SlotClass::Quiet, 0); probs.len()];
        let mut all_valid = valid(tail);
        let (mut class, mut len) = (SlotClass::of(tail), u32::MAX);
        for (run, &p) in runs.iter_mut().zip(&probs).rev() {
            all_valid &= valid(p);
            let here = SlotClass::of(p);
            len = if here == class {
                len + u32::from(len < u32::MAX - 1)
            } else {
                1
            };
            class = here;
            *run = (class, len);
        }
        assert!(
            all_valid,
            "policy table entries must be probabilities in [0, 1]"
        );
        Self { probs, tail, runs }
    }

    /// The activation probability for state `i ≥ 1`.
    #[inline]
    pub fn probability(&self, state: usize) -> f64 {
        debug_assert!(state >= 1, "states are 1-based");
        if state <= self.probs.len() {
            self.probs[state - 1]
        } else {
            self.tail
        }
    }

    /// The run through state `i ≥ 1`: its [`SlotClass`] and how many
    /// consecutive states from `i` on share it, `u64::MAX` when the run
    /// extends through the tail and so never ends.
    #[inline]
    pub fn run(&self, state: usize) -> (SlotClass, u64) {
        debug_assert!(state >= 1, "states are 1-based");
        match self.runs.get(state.wrapping_sub(1)) {
            Some(&(class, len)) if len < u32::MAX => (class, u64::from(len)),
            Some(&(class, _)) => (class, u64::MAX),
            None => (SlotClass::of(self.tail), u64::MAX),
        }
    }

    /// Number of explicitly stored states before the constant tail.
    pub fn explicit_states(&self) -> usize {
        self.probs.len()
    }

    /// The constant probability applied beyond the explicit states.
    pub fn tail(&self) -> f64 {
        self.tail
    }
}

/// A randomized activation policy: in each slot the sensor activates with a
/// computed probability.
///
/// Implementations must be deterministic functions of the context — the
/// randomness lives in the simulator, which draws the Bernoulli coin. This
/// keeps analytic evaluation (which integrates over the coin) and simulation
/// (which flips it) consistent by construction.
pub trait ActivationPolicy {
    /// Probability of choosing to activate given the context.
    ///
    /// The simulator applies the paper's feasibility rule on top: a sensor
    /// holding less than `δ1 + δ2` is forced inactive regardless of this
    /// probability.
    fn probability(&self, ctx: &DecisionContext) -> f64;

    /// The observation model this policy is designed for.
    fn info_model(&self) -> InfoModel;

    /// A short human-readable label for reports and plots.
    fn label(&self) -> String;

    /// The analytic long-run discharge rate (energy units/slot) under the
    /// energy assumption, when known. Used by tests to verify energy
    /// balance.
    fn planned_discharge_rate(&self) -> Option<f64> {
        None
    }

    /// The policy compiled to a flat state-indexed probability table, when
    /// the policy is stationary in the renewal state.
    ///
    /// Returning `Some` promises `table.probability(i)` equals
    /// `self.probability(&DecisionContext::stationary(i))` *exactly* (same
    /// bits) for every state `i ≥ 1` and any slot/battery context — the
    /// simulator substitutes the table for the virtual call on its hot path.
    /// Policies that condition on wall-clock time or battery return `None`.
    fn table(&self) -> Option<PolicyTable> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysOn;

    impl ActivationPolicy for AlwaysOn {
        fn probability(&self, _ctx: &DecisionContext) -> f64 {
            1.0
        }
        fn info_model(&self) -> InfoModel {
            InfoModel::Partial
        }
        fn label(&self) -> String {
            "always-on".into()
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let policy: Box<dyn ActivationPolicy> = Box::new(AlwaysOn);
        let ctx = DecisionContext::stationary(3);
        assert_eq!(policy.probability(&ctx), 1.0);
        assert_eq!(policy.info_model(), InfoModel::Partial);
        assert_eq!(policy.planned_discharge_rate(), None);
    }

    #[test]
    fn stationary_context_defaults() {
        let ctx = DecisionContext::stationary(5);
        assert_eq!(ctx.state, 5);
        assert_eq!(ctx.battery_fraction, 1.0);
    }

    #[test]
    fn info_model_displays() {
        assert_eq!(InfoModel::Full.to_string(), "full information");
        assert_eq!(InfoModel::Partial.to_string(), "partial information");
    }

    #[test]
    fn table_defaults_to_none() {
        let policy: Box<dyn ActivationPolicy> = Box::new(AlwaysOn);
        assert!(policy.table().is_none());
    }

    #[test]
    fn table_lookup_and_tail() {
        let table = PolicyTable::new(vec![0.0, 0.5, 1.0], 0.25);
        assert_eq!(table.probability(1), 0.0);
        assert_eq!(table.probability(2), 0.5);
        assert_eq!(table.probability(3), 1.0);
        assert_eq!(table.probability(4), 0.25);
        assert_eq!(table.probability(1_000_000), 0.25);
        assert_eq!(table.explicit_states(), 3);
        assert_eq!(table.tail(), 0.25);
    }

    #[test]
    fn runs_group_states_by_class() {
        let table = PolicyTable::new(vec![0.0, -0.0, 0.5, 0.25, 1.0, 1.0, 0.0, 1.0], 1.0);
        let runs: Vec<_> = (1..=10).map(|i| table.run(i)).collect();
        assert_eq!(
            runs,
            [
                (SlotClass::Quiet, 2),
                (SlotClass::Quiet, 1),
                (SlotClass::Mixed, 2),
                (SlotClass::Mixed, 1),
                (SlotClass::Hot, 2),
                (SlotClass::Hot, 1),
                (SlotClass::Quiet, 1),
                // The last explicit run continues through the hot tail.
                (SlotClass::Hot, u64::MAX),
                (SlotClass::Hot, u64::MAX),
                (SlotClass::Hot, u64::MAX),
            ]
        );
        // Every class agrees with the probability it was computed from.
        for i in 1..=10 {
            assert_eq!(table.run(i).0, SlotClass::of(table.probability(i)));
        }
        let ends_short = PolicyTable::new(vec![1.0], 0.5);
        assert_eq!(ends_short.run(1), (SlotClass::Hot, 1));
        assert_eq!(ends_short.run(2), (SlotClass::Mixed, u64::MAX));
        assert_eq!(
            PolicyTable::new(Vec::new(), 0.0).run(1),
            (SlotClass::Quiet, u64::MAX)
        );
    }

    #[test]
    fn empty_table_is_all_tail() {
        let table = PolicyTable::new(Vec::new(), 1.0);
        assert_eq!(table.explicit_states(), 0);
        assert_eq!(table.probability(1), 1.0);
        assert_eq!(table.probability(99), 1.0);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn table_rejects_non_probability() {
        let _ = PolicyTable::new(vec![1.5], 0.0);
    }
}
