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
    /// `i ≤ probs.len()` and to `tail` beyond.
    ///
    /// # Panics
    ///
    /// Panics if any entry (or the tail) is not a probability in `[0, 1]`.
    pub fn new(probs: Vec<f64>, tail: f64) -> Self {
        let valid = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        assert!(
            probs.iter().all(|&p| valid(p)) && valid(tail),
            "policy table entries must be probabilities in [0, 1]"
        );
        Self { probs, tail }
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

    /// Slice-in/slice-out batch lookup: `out[i] = probability(states[i])`.
    ///
    /// One bounds check against the explicit region per state and no call
    /// overhead, for callers that look up many states at once.
    /// Bit-identical to looping [`PolicyTable::probability`] by definition.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn fill_probabilities(&self, states: &[usize], out: &mut [f64]) {
        assert_eq!(states.len(), out.len(), "state/probability lanes differ");
        let n = self.probs.len();
        for (slot, &state) in out.iter_mut().zip(states) {
            debug_assert!(state >= 1, "states are 1-based");
            *slot = if state <= n {
                self.probs[state - 1]
            } else {
                self.tail
            };
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
    fn batch_lookup_matches_scalar_lookup() {
        let table = PolicyTable::new(vec![0.0, 0.5, 1.0], 0.25);
        let states: Vec<usize> = vec![1, 2, 3, 4, 3, 1_000_000, 1];
        let mut out = vec![f64::NAN; states.len()];
        table.fill_probabilities(&states, &mut out);
        for (&state, &p) in states.iter().zip(&out) {
            assert_eq!(p, table.probability(state), "state {state}");
        }
        // Empty lanes are a no-op, and mismatched lanes panic.
        table.fill_probabilities(&[], &mut []);
        assert!(std::panic::catch_unwind(|| {
            let mut short = [0.0];
            table.fill_probabilities(&[1, 2], &mut short);
        })
        .is_err());
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
