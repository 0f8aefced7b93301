//! Walking a policy table's quiet and hot runs in bulk must not change a
//! run: the slot kernel takes runs only for a table policy, a
//! [`NullObserver`](evcap_obs::NullObserver) run and a plan without
//! outages, and every [`SimReport`] it returns must equal the slot-by-slot
//! walk's, field for field.
//!
//! Each case draws one configuration from its seed and runs it four ways
//! on one schedule:
//!
//! - `run_on`, which takes runs;
//! - `run_on_observed` with an observer that implements no hook, which
//!   keeps every slot's hooks and so walks slot by slot;
//! - `run_on` with the table hidden, so the policy is dispatched per slot;
//! - `ReplicationBatch::run_on`, against slot-by-slot runs of each seed.
//!
//! The configurations mix tables of quiet, hot and fractional blocks
//! (`-0.0` included) shorter and longer than the gaps between events;
//! every recharge kind at its edges, including Bernoulli deliveries near
//! `Energy`'s limit and opaque negative ones; all-Bernoulli and mixed
//! fleets of one to four sensors under every coordination; both
//! information models; a battery where the `δ1 + δ2` gate binds; and
//! warm-ups that end mid-run.

use evcap_core::{ActivationPolicy, DecisionContext, InfoModel, PolicyTable, SlotAssignment};
use evcap_dist::{Discretizer, Weibull};
use evcap_energy::{
    BernoulliRecharge, ConstantRecharge, Energy, PeriodicRecharge, RechargeKind, RechargeProcess,
    UniformRecharge,
};
use evcap_obs::Observer;
use evcap_sim::{EventSchedule, ReplicationBatch, SimReport, Simulation};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Just under `Energy::from_units`'s limit of `i64::MAX / 4` milli-units.
const HUGE_UNITS: f64 = 2.3e15;

/// A stationary policy given by its table.
struct Tabled {
    table: PolicyTable,
    info: InfoModel,
}

impl ActivationPolicy for Tabled {
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.table.probability(ctx.state)
    }
    fn info_model(&self) -> InfoModel {
        self.info
    }
    fn label(&self) -> String {
        "tabled".into()
    }
    fn table(&self) -> Option<PolicyTable> {
        Some(self.table.clone())
    }
}

/// The same policy with its table hidden.
struct Untabled<'p>(&'p Tabled);

impl ActivationPolicy for Untabled<'_> {
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        self.0.probability(ctx)
    }
    fn info_model(&self) -> InfoModel {
        self.0.info
    }
    fn label(&self) -> String {
        "untabled".into()
    }
}

/// An observer that implements no hook yet, like every observer but
/// `NullObserver`, wants every slot's.
struct Bare;

impl Observer for Bare {}

/// One sensor's recharge, replayable by the scalar runs and the batch alike.
#[derive(Debug, Clone, Copy)]
enum Recharge {
    Bernoulli {
        q: f64,
        c: f64,
    },
    Periodic {
        amount: f64,
        period: u32,
    },
    /// A periodic kind whose phase lies outside its period, as a process
    /// may declare through the public `RechargeKind`: it never delivers.
    Stalled {
        period: u32,
        phase: u32,
    },
    Constant {
        rate: f64,
    },
    Uniform {
        lo: f64,
        hi: f64,
    },
    /// An opaque process drawing one of four deliveries, some negative.
    Opaque {
        amounts: [i64; 4],
    },
}

impl Recharge {
    fn make(self) -> Box<dyn RechargeProcess> {
        let units = Energy::from_units;
        match self {
            Recharge::Bernoulli { q, c } => Box::new(BernoulliRecharge::new(q, units(c)).unwrap()),
            Recharge::Periodic { amount, period } => {
                Box::new(PeriodicRecharge::new(units(amount), period).unwrap())
            }
            Recharge::Stalled { period, phase } => Box::new(Stalled { period, phase }),
            Recharge::Constant { rate } => Box::new(ConstantRecharge::new(units(rate)).unwrap()),
            Recharge::Uniform { lo, hi } => {
                Box::new(UniformRecharge::new(units(lo), units(hi)).unwrap())
            }
            Recharge::Opaque { amounts } => Box::new(Opaque { amounts }),
        }
    }

    fn arb_bernoulli(g: &mut SmallRng) -> Self {
        let q = match g.random_range(0..5) {
            0 => 0.0,
            1 => 1.0 / (1u64 << 53) as f64,
            2 => 0.5,
            3 => 1.0,
            _ => g.random::<f64>(),
        };
        let c = match g.random_range(0..4) {
            0 => HUGE_UNITS,
            1 => 0.0,
            _ => g.random_range(0.25..4.0),
        };
        Recharge::Bernoulli { q, c }
    }

    fn arb(g: &mut SmallRng) -> Self {
        match g.random_range(0..6) {
            0 => Self::arb_bernoulli(g),
            1 => Recharge::Periodic {
                amount: g.random_range(0.0..30.0),
                period: [1u32, g.random_range(2..20), g.random_range(100..5_000)]
                    [g.random_range(0..3usize)],
            },
            2 => Recharge::Stalled {
                period: g.random_range(0..4),
                phase: g.random_range(4..8),
            },
            3 => Recharge::Constant {
                rate: [0.0, g.random_range(0.001..3.0)][g.random_range(0..2usize)],
            },
            4 => {
                let lo = g.random_range(0.0..2.0);
                let hi = [lo, lo + g.random_range(0.001..3.0)][g.random_range(0..2usize)];
                Recharge::Uniform { lo, hi }
            }
            _ => {
                let mut amounts = [0i64; 4];
                for a in &mut amounts {
                    *a = match g.random_range(0..4) {
                        0 => -g.random_range(0..3_000i64),
                        1 => i64::MIN / 2,
                        _ => g.random_range(0..3_000),
                    };
                }
                Recharge::Opaque { amounts }
            }
        }
    }
}

/// See [`Recharge::Stalled`].
struct Stalled {
    period: u32,
    phase: u32,
}

impl RechargeProcess for Stalled {
    fn next(&mut self, _rng: &mut dyn RngCore) -> Energy {
        Energy::ZERO
    }
    fn mean_rate(&self) -> f64 {
        0.0
    }
    fn label(&self) -> String {
        "stalled".into()
    }
    fn reset(&mut self) {}
    fn kind(&self) -> RechargeKind {
        RechargeKind::Periodic {
            amount: Energy::from_units(5.0),
            period: self.period,
            phase: self.phase,
        }
    }
}

/// See [`Recharge::Opaque`]. It draws from the stream, so its draws
/// interleave with the other sensors'.
struct Opaque {
    amounts: [i64; 4],
}

impl RechargeProcess for Opaque {
    fn next(&mut self, rng: &mut dyn RngCore) -> Energy {
        Energy::from_millis(self.amounts[(rng.next_u64() >> 62) as usize])
    }
    fn mean_rate(&self) -> f64 {
        0.0
    }
    fn label(&self) -> String {
        "opaque".into()
    }
    fn reset(&mut self) {}
}

/// One table entry: quiet, hot or fractional.
fn arb_entry(g: &mut SmallRng) -> f64 {
    match g.random_range(0..6) {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => 1.0,
        4 => [1e-9, 0.5, 1.0 - 1e-12][g.random_range(0..3usize)],
        _ => g.random::<f64>(),
    }
}

/// A table of random blocks, from none to a few hundred states.
fn arb_table(g: &mut SmallRng) -> PolicyTable {
    let len = [
        0,
        1,
        g.random_range(2..10),
        g.random_range(10..60),
        g.random_range(60..300),
    ][g.random_range(0..5usize)];
    let mut probs = Vec::with_capacity(len);
    while probs.len() < len {
        let block = g.random_range(1..=16usize).min(len - probs.len());
        let p = arb_entry(g);
        probs.extend(std::iter::repeat_n(p, block));
    }
    PolicyTable::new(probs, arb_entry(g))
}

fn arb_coordination(g: &mut SmallRng, sensors: usize) -> Option<SlotAssignment> {
    match g.random_range(0..4) {
        0 => Some(SlotAssignment::RoundRobin),
        1 => Some(SlotAssignment::Blocks {
            block_len: g.random_range(1..6),
        }),
        2 => {
            let shares: Vec<u8> = (0..sensors).map(|_| g.random_range(1..4)).collect();
            Some(SlotAssignment::weighted(&shares).unwrap())
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn bulk_runs_equal_the_slot_by_slot_walk(case in 0u64..u64::MAX) {
        let g = &mut SmallRng::seed_from_u64(case);
        let pmf = Discretizer::new()
            .max_horizon(512)
            .discretize(&Weibull::new(g.random_range(3.0..60.0), g.random_range(0.7..4.0)).unwrap())
            .unwrap();
        let slots = g.random_range(200..2_500);
        let schedule = EventSchedule::generate(&pmf, slots, g.random()).unwrap();

        let policy = Tabled {
            table: arb_table(g),
            info: [InfoModel::Full, InfoModel::Partial][g.random_range(0..2usize)],
        };
        let sensors = g.random_range(1..=4);
        let recharge: Vec<Recharge> = if g.random_range(0..2) == 0 {
            (0..sensors).map(|_| Recharge::arb_bernoulli(g)).collect()
        } else {
            (0..sensors).map(|_| Recharge::arb(g)).collect()
        };
        let capacity = [8.0, 1000.0][g.random_range(0..2usize)];
        let mut sim = Simulation::builder(&pmf)
            .slots(slots)
            .seed(g.random())
            .sensors(sensors)
            .battery(Energy::from_units(capacity))
            .warmup_slots(g.random_range(0..slots / 2));
        sim = match g.random_range(0..3) {
            0 => sim.initial_level(Energy::ZERO),
            1 => sim.initial_level(Energy::from_units(capacity)),
            _ => sim,
        };
        sim = match arb_coordination(g, sensors) {
            Some(assignment) => sim.assignment(assignment),
            None => sim.independent(),
        };
        if g.random_range(0..4) == 0 {
            sim = sim.record_battery_every(g.random_range(1..400));
        }

        let factory = |s: usize| recharge[s].make();
        let mut make = |s: usize| recharge[s].make();
        let slot_by_slot = |sim: &Simulation<'_>| -> SimReport {
            sim.run_on_observed(&schedule, &policy, &mut |s: usize| recharge[s].make(), &mut Bare)
                .unwrap()
        };
        let walked = slot_by_slot(&sim);
        let bulk = sim.run_on(&schedule, &policy, &mut make).unwrap();
        prop_assert_eq!(&bulk, &walked, "case {}: bulk runs diverged", case);
        let dispatched = sim.run_on(&schedule, &Untabled(&policy), &mut make).unwrap();
        prop_assert_eq!(&dispatched, &walked, "case {}: dispatch diverged", case);

        let batch = ReplicationBatch::new(sim.clone(), 3).unwrap().threads(1);
        let per_seed: Vec<SimReport> = batch
            .seeds()
            .iter()
            .map(|&seed| slot_by_slot(&sim.clone().seed(seed)))
            .collect();
        let batched = batch.run_on(&schedule, &policy, &factory).unwrap();
        prop_assert_eq!(&batched.reports, &per_seed, "case {}: batch diverged", case);
    }
}
