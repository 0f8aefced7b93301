//! Stochastic recharge processes.
//!
//! The paper evaluates three recharge models (Section VI): a Bernoulli
//! process (`c` units with probability `q` per slot — labeled "Poisson" in
//! the paper's Fig. 3 legend), a periodic process (a lump every `p` slots),
//! and a constant trickle. A uniform-random process is included as an extra
//! bursty model for ablations. All have a well-defined mean rate `e`
//! (units/slot); the activation policies depend on the recharge process only
//! through `e`, and Fig. 3 demonstrates that insensitivity.

use rand::Rng;

use crate::{Energy, EnergyError, Result};

/// A per-slot energy source.
///
/// Implementors are stateful (e.g. the periodic process tracks its phase) and
/// are stepped once per slot by the simulator, *before* the activation
/// decision — matching the paper's in-slot ordering (recharge, then decide,
/// then the event).
pub trait RechargeProcess {
    /// Draws the energy delivered in the next slot.
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Energy;

    /// The long-run mean rate `e` in energy units per slot.
    fn mean_rate(&self) -> f64;

    /// A short human-readable label for reports.
    fn label(&self) -> String;

    /// Resets any internal phase to the initial state.
    fn reset(&mut self);

    /// The process's closed-form description, if it has one.
    ///
    /// The simulation kernel classifies every process once per run through
    /// this and replaces the per-slot virtual `next` call with inline
    /// arithmetic. A kind is a *contract*: the values it carries
    /// (including any phase state, captured at call time) must let a caller
    /// reproduce the exact same delivery sequence and the exact same RNG
    /// draws `next` would make. Processes without such a description return
    /// [`RechargeKind::Other`] and stay on dynamic dispatch.
    fn kind(&self) -> RechargeKind {
        RechargeKind::Other
    }
}

/// Closed-form description of a recharge process (see
/// [`RechargeProcess::kind`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RechargeKind {
    /// `c` units with probability `q` per slot; draws one `f64` per slot.
    Bernoulli {
        /// Delivery probability per slot.
        q: f64,
        /// Amount delivered on success.
        c: Energy,
    },
    /// Exactly `rate` units per slot; draws nothing.
    Constant {
        /// Per-slot delivery.
        rate: Energy,
    },
    /// `amount` once every `period` slots; draws nothing. `phase` is the
    /// process's current position within the period (0 = period start).
    Periodic {
        /// Lump delivered at the end of each period.
        amount: Energy,
        /// Slots per period.
        period: u32,
        /// Current phase at the time `kind` was called.
        phase: u32,
    },
    /// Uniform on `[lo, hi]` milli-units; draws one ranged integer per slot.
    Uniform {
        /// Lower bound (inclusive).
        lo: Energy,
        /// Upper bound (inclusive).
        hi: Energy,
    },
    /// No closed form; callers must keep using [`RechargeProcess::next`].
    Other,
}

/// Bernoulli recharge: `c` units with probability `q` each slot, zero
/// otherwise. Mean rate `e = q·c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliRecharge {
    q: f64,
    c: Energy,
}

impl BernoulliRecharge {
    /// Creates a Bernoulli recharge process.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidProbability`] if `q ∉ [0, 1]`, or
    /// [`EnergyError::NegativeEnergy`] if `c < 0`.
    pub fn new(q: f64, c: Energy) -> Result<Self> {
        if !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return Err(EnergyError::InvalidProbability {
                name: "q",
                value: q,
            });
        }
        if c < Energy::ZERO {
            return Err(EnergyError::NegativeEnergy {
                name: "c",
                value: c,
            });
        }
        Ok(Self { q, c })
    }
}

impl RechargeProcess for BernoulliRecharge {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Energy {
        if rng.random::<f64>() < self.q {
            self.c
        } else {
            Energy::ZERO
        }
    }

    fn mean_rate(&self) -> f64 {
        self.q * self.c.as_units()
    }

    fn label(&self) -> String {
        format!("Bernoulli(q={}, c={})", self.q, self.c)
    }

    fn reset(&mut self) {}

    fn kind(&self) -> RechargeKind {
        RechargeKind::Bernoulli {
            q: self.q,
            c: self.c,
        }
    }
}

/// Periodic recharge: `amount` units delivered once every `period` slots
/// (in the last slot of each period). Mean rate `e = amount / period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicRecharge {
    amount: Energy,
    period: u32,
    phase: u32,
}

impl PeriodicRecharge {
    /// Creates a periodic recharge process.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::ZeroPeriod`] if `period == 0`, or
    /// [`EnergyError::NegativeEnergy`] if `amount < 0`.
    pub fn new(amount: Energy, period: u32) -> Result<Self> {
        if period == 0 {
            return Err(EnergyError::ZeroPeriod);
        }
        if amount < Energy::ZERO {
            return Err(EnergyError::NegativeEnergy {
                name: "amount",
                value: amount,
            });
        }
        Ok(Self {
            amount,
            period,
            phase: 0,
        })
    }
}

impl RechargeProcess for PeriodicRecharge {
    fn next(&mut self, _rng: &mut dyn rand::RngCore) -> Energy {
        self.phase += 1;
        if self.phase == self.period {
            self.phase = 0;
            self.amount
        } else {
            Energy::ZERO
        }
    }

    fn mean_rate(&self) -> f64 {
        self.amount.as_units() / self.period as f64
    }

    fn label(&self) -> String {
        format!("Periodic({} per {})", self.amount, self.period)
    }

    fn reset(&mut self) {
        self.phase = 0;
    }

    fn kind(&self) -> RechargeKind {
        RechargeKind::Periodic {
            amount: self.amount,
            period: self.period,
            phase: self.phase,
        }
    }
}

/// Constant recharge: exactly `rate` units every slot (the paper's "Uniform"
/// process, which delivers 0.5 units per slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantRecharge {
    rate: Energy,
}

impl ConstantRecharge {
    /// Creates a constant recharge of `rate` units per slot.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::NegativeEnergy`] if `rate < 0`.
    pub fn new(rate: Energy) -> Result<Self> {
        if rate < Energy::ZERO {
            return Err(EnergyError::NegativeEnergy {
                name: "rate",
                value: rate,
            });
        }
        Ok(Self { rate })
    }
}

impl RechargeProcess for ConstantRecharge {
    fn next(&mut self, _rng: &mut dyn rand::RngCore) -> Energy {
        self.rate
    }

    fn mean_rate(&self) -> f64 {
        self.rate.as_units()
    }

    fn label(&self) -> String {
        format!("Constant({})", self.rate)
    }

    fn reset(&mut self) {}

    fn kind(&self) -> RechargeKind {
        RechargeKind::Constant { rate: self.rate }
    }
}

/// Uniform-random recharge: an amount drawn uniformly from `[lo, hi]` each
/// slot. Mean rate `(lo + hi) / 2`. Not in the paper; used in ablations to
/// stress burst absorption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformRecharge {
    lo: Energy,
    hi: Energy,
}

impl UniformRecharge {
    /// Creates a uniform-random recharge on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::NegativeEnergy`] if `lo < 0`, or
    /// [`EnergyError::InvertedRange`] if `lo > hi`.
    pub fn new(lo: Energy, hi: Energy) -> Result<Self> {
        if lo < Energy::ZERO {
            return Err(EnergyError::NegativeEnergy {
                name: "lo",
                value: lo,
            });
        }
        if lo > hi {
            return Err(EnergyError::InvertedRange { lo, hi });
        }
        Ok(Self { lo, hi })
    }
}

impl RechargeProcess for UniformRecharge {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Energy {
        let lo = self.lo.as_millis();
        let hi = self.hi.as_millis();
        Energy::from_millis(rng.random_range(lo..=hi))
    }

    fn mean_rate(&self) -> f64 {
        0.5 * (self.lo.as_units() + self.hi.as_units())
    }

    fn label(&self) -> String {
        format!("UniformRandom({}, {})", self.lo, self.hi)
    }

    fn reset(&mut self) {}

    fn kind(&self) -> RechargeKind {
        RechargeKind::Uniform {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empirical_rate<P: RechargeProcess>(p: &mut P, slots: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let total: Energy = (0..slots).map(|_| p.next(&mut rng)).sum();
        total.as_units() / slots as f64
    }

    #[test]
    fn bernoulli_empirical_rate_matches_mean() {
        let mut p = BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap();
        assert_eq!(p.mean_rate(), 0.5);
        let rate = empirical_rate(&mut p, 100_000, 1);
        assert!((rate - 0.5).abs() < 0.01, "{rate}");
    }

    #[test]
    fn bernoulli_validates() {
        assert!(BernoulliRecharge::new(1.5, Energy::from_units(1.0)).is_err());
        assert!(BernoulliRecharge::new(0.5, Energy::from_units(-1.0)).is_err());
    }

    #[test]
    fn periodic_delivers_on_schedule() {
        let mut p = PeriodicRecharge::new(Energy::from_units(5.0), 10).unwrap();
        assert_eq!(p.mean_rate(), 0.5);
        let mut rng = SmallRng::seed_from_u64(2);
        let deliveries: Vec<Energy> = (0..20).map(|_| p.next(&mut rng)).collect();
        for (i, &d) in deliveries.iter().enumerate() {
            if (i + 1) % 10 == 0 {
                assert_eq!(d, Energy::from_units(5.0), "slot {i}");
            } else {
                assert_eq!(d, Energy::ZERO, "slot {i}");
            }
        }
    }

    #[test]
    fn periodic_reset_restores_phase() {
        let mut p = PeriodicRecharge::new(Energy::from_units(5.0), 3).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = p.next(&mut rng);
        p.reset();
        assert_eq!(p.next(&mut rng), Energy::ZERO);
        assert_eq!(p.next(&mut rng), Energy::ZERO);
        assert_eq!(p.next(&mut rng), Energy::from_units(5.0));
    }

    #[test]
    fn periodic_validates() {
        assert!(PeriodicRecharge::new(Energy::from_units(1.0), 0).is_err());
        assert!(PeriodicRecharge::new(Energy::from_units(-1.0), 5).is_err());
    }

    #[test]
    fn constant_is_deterministic() {
        let mut p = ConstantRecharge::new(Energy::from_units(0.5)).unwrap();
        assert_eq!(p.mean_rate(), 0.5);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10 {
            assert_eq!(p.next(&mut rng), Energy::from_units(0.5));
        }
    }

    #[test]
    fn uniform_stays_in_range_and_matches_mean() {
        let lo = Energy::from_units(0.0);
        let hi = Energy::from_units(1.0);
        let mut p = UniformRecharge::new(lo, hi).unwrap();
        assert_eq!(p.mean_rate(), 0.5);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut total = Energy::ZERO;
        for _ in 0..50_000 {
            let e = p.next(&mut rng);
            assert!(e >= lo && e <= hi);
            total += e;
        }
        let rate = total.as_units() / 50_000.0;
        assert!((rate - 0.5).abs() < 0.01, "{rate}");
    }

    #[test]
    fn uniform_validates() {
        assert!(UniformRecharge::new(Energy::from_units(2.0), Energy::from_units(1.0)).is_err());
        assert!(UniformRecharge::new(Energy::from_units(-1.0), Energy::from_units(1.0)).is_err());
    }

    #[test]
    fn kinds_describe_the_processes_exactly() {
        let b = BernoulliRecharge::new(0.3, Energy::from_units(2.0)).unwrap();
        assert_eq!(
            b.kind(),
            RechargeKind::Bernoulli {
                q: 0.3,
                c: Energy::from_units(2.0)
            }
        );
        let c = ConstantRecharge::new(Energy::from_units(0.5)).unwrap();
        assert_eq!(
            c.kind(),
            RechargeKind::Constant {
                rate: Energy::from_units(0.5)
            }
        );
        let u = UniformRecharge::new(Energy::ZERO, Energy::from_units(1.0)).unwrap();
        assert_eq!(
            u.kind(),
            RechargeKind::Uniform {
                lo: Energy::ZERO,
                hi: Energy::from_units(1.0)
            }
        );

        // The periodic kind carries the live phase: a stepped process
        // reports where it is, so the simulation kernel can resume mid-period.
        let mut p = PeriodicRecharge::new(Energy::from_units(5.0), 10).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let _ = p.next(&mut rng);
        let _ = p.next(&mut rng);
        assert_eq!(
            p.kind(),
            RechargeKind::Periodic {
                amount: Energy::from_units(5.0),
                period: 10,
                phase: 2,
            }
        );

        struct Custom;
        impl RechargeProcess for Custom {
            fn next(&mut self, _rng: &mut dyn rand::RngCore) -> Energy {
                Energy::ZERO
            }
            fn mean_rate(&self) -> f64 {
                0.0
            }
            fn label(&self) -> String {
                "custom".into()
            }
            fn reset(&mut self) {}
        }
        assert_eq!(Custom.kind(), RechargeKind::Other);
    }

    #[test]
    fn processes_are_object_safe() {
        let mut list: Vec<Box<dyn RechargeProcess>> = vec![
            Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap()),
            Box::new(PeriodicRecharge::new(Energy::from_units(5.0), 10).unwrap()),
            Box::new(ConstantRecharge::new(Energy::from_units(0.5)).unwrap()),
        ];
        // All three of the paper's Fig. 3 processes share the same mean rate.
        for p in &mut list {
            assert!((p.mean_rate() - 0.5).abs() < 1e-12, "{}", p.label());
        }
    }
}
