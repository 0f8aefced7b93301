//! Property-based equivalence between batched and standalone runs: for
//! randomized scenarios spanning distribution families, recharge kinds,
//! coordination modes, and policy shapes, every per-seed
//! [`evcap_sim::SimReport`] out of a [`ReplicationBatch`] must be
//! bit-identical to a standalone [`Simulation::run`] with the same strided
//! seed, and the cross-seed reduction must not depend on the thread count.
//!
//! Both sides run the same slot kernel, so this suite proves the batch
//! layer (shared sampler and policy table, seed striding, the seed-order
//! reduction), not the kernel itself; `tests/golden_reports.rs` pins the
//! kernel's outputs.

use evcap_core::{ActivationPolicy, AggressivePolicy, EnergyBudget, GreedyPolicy};
use evcap_dist::{Discretizer, Exponential, InterArrival, Pareto, UniformArrival, Weibull};
use evcap_energy::{
    BernoulliRecharge, ConstantRecharge, ConsumptionModel, Energy, PeriodicRecharge,
    RechargeProcess, UniformRecharge,
};
use evcap_sim::{EventSchedule, OutagePlan, OutageWindow, ReplicationBatch, Simulation};
use proptest::prelude::*;

/// A static recharge configuration the factory can replay deterministically
/// for the scalar and batched engines alike.
#[derive(Debug, Clone, Copy)]
enum Recharge {
    Bernoulli { q: f64, c: f64 },
    Constant { rate: f64 },
    Periodic { amount: f64, period: u32 },
    Uniform { lo: f64, hi: f64 },
}

impl Recharge {
    /// Builds the process for one sensor. Parameters are staggered by sensor
    /// index so multi-sensor scenarios exercise heterogeneous processes of
    /// the same kind (the case the kernel's per-sensor recharge
    /// classification must keep separate).
    fn make(self, sensor: usize) -> Box<dyn RechargeProcess> {
        let bump = 1.0 + sensor as f64 * 0.25;
        match self {
            Recharge::Bernoulli { q, c } => {
                Box::new(BernoulliRecharge::new(q, Energy::from_units(c * bump)).unwrap())
            }
            Recharge::Constant { rate } => {
                Box::new(ConstantRecharge::new(Energy::from_units(rate * bump)).unwrap())
            }
            Recharge::Periodic { amount, period } => Box::new(
                PeriodicRecharge::new(Energy::from_units(amount * bump), period + sensor as u32)
                    .unwrap(),
            ),
            Recharge::Uniform { lo, hi } => Box::new(
                UniformRecharge::new(Energy::from_units(lo), Energy::from_units(hi * bump))
                    .unwrap(),
            ),
        }
    }
}

/// Heterogeneous inter-arrival distributions, kept at modest horizons so the
/// per-case discretization and greedy solve stay cheap.
fn arb_dist() -> impl Strategy<Value = Box<dyn InterArrival>> {
    prop_oneof![
        (2.0f64..40.0, 0.6f64..4.0)
            .prop_map(|(s, k)| Box::new(Weibull::new(s, k).unwrap()) as Box<dyn InterArrival>),
        (0.02f64..0.8)
            .prop_map(|r| Box::new(Exponential::new(r).unwrap()) as Box<dyn InterArrival>),
        (1.2f64..3.0, 1.0f64..15.0)
            .prop_map(|(a, s)| Box::new(Pareto::new(a, s).unwrap()) as Box<dyn InterArrival>),
        (1.0f64..8.0, 9.0f64..30.0).prop_map(|(lo, hi)| {
            Box::new(UniformArrival::new(lo, hi).unwrap()) as Box<dyn InterArrival>
        }),
    ]
}

fn arb_recharge() -> impl Strategy<Value = Recharge> {
    prop_oneof![
        (0.1f64..0.9, 0.5f64..2.0).prop_map(|(q, c)| Recharge::Bernoulli { q, c }),
        (0.1f64..1.5).prop_map(|rate| Recharge::Constant { rate }),
        (1.0f64..5.0, 2u32..9).prop_map(|(amount, period)| Recharge::Periodic { amount, period }),
        (0.0f64..0.5, 0.6f64..2.0).prop_map(|(lo, hi)| Recharge::Uniform { lo, hi }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn soa_batches_are_bit_identical_to_strided_scalar_runs(
        dist in arb_dist(),
        recharge in arb_recharge(),
        seed in 0u64..10_000,
        slots in 400u64..1_500,
        sensors in 1usize..=3,
        independent in (0u8..2).prop_map(|b| b == 1),
        greedy in (0u8..2).prop_map(|b| b == 1),
        reps_idx in 0usize..3,
        warmup in 0u64..40,
        with_outage in (0u8..2).prop_map(|b| b == 1),
    ) {
        let reps = [1usize, 3, 16][reps_idx];
        let pmf = Discretizer::new()
            .max_horizon(512)
            .discretize(dist.as_ref())
            .expect("discretizes");

        let greedy_policy;
        let aggressive_policy;
        let policy: &(dyn ActivationPolicy + Sync) = if greedy {
            greedy_policy = GreedyPolicy::optimize(
                &pmf,
                EnergyBudget::per_slot(0.5),
                &ConsumptionModel::paper_defaults(),
            )
            .expect("solves");
            &greedy_policy
        } else {
            aggressive_policy = AggressivePolicy::new();
            &aggressive_policy
        };

        let mut sim = Simulation::builder(&pmf)
            .slots(slots)
            .seed(seed)
            .battery(Energy::from_units(150.0))
            .sensors(sensors)
            .warmup_slots(warmup)
            .trace_slots(16);
        if independent {
            sim = sim.independent();
        }
        if with_outage {
            sim = sim.outages(OutagePlan::from_windows(vec![OutageWindow {
                sensor: 0,
                from: 50,
                to: 90,
            }]));
        }

        // Reference: one truly independent scalar run per strided seed.
        let seeds = ReplicationBatch::new(sim.clone(), reps).expect("valid").seeds();
        let scalar: Vec<_> = seeds
            .iter()
            .map(|&s| {
                sim.clone()
                    .seed(s)
                    .run(policy, &mut |i: usize| recharge.make(i))
                    .expect("scalar run")
            })
            .collect();

        let factory = move |s: usize| recharge.make(s);
        let mut reductions = Vec::new();
        for &threads in &[1usize, 2, 8] {
            let report = ReplicationBatch::new(sim.clone(), reps)
                .expect("valid")
                .threads(threads)
                .run(policy, &factory)
                .expect("batched run");
            prop_assert_eq!(
                &report.reports, &scalar,
                "per-seed reports diverged from scalar runs at threads={}", threads
            );
            // Age-of-information statistics, explicitly: the integer
            // accumulators must match the scalar engine bit for bit and
            // satisfy their internal invariants at every thread count.
            for (batched, reference) in report.reports.iter().zip(&scalar) {
                prop_assert_eq!(
                    (batched.measured_slots, batched.age_sum, batched.peak_age),
                    (reference.measured_slots, reference.age_sum, reference.peak_age),
                    "age statistics diverged at threads={}", threads
                );
                prop_assert_eq!(batched.measured_slots, slots - warmup);
                prop_assert!(batched.age_sum <= batched.measured_slots * batched.peak_age.max(1));
                prop_assert_eq!(batched.mean_age().to_bits(), reference.mean_age().to_bits());
            }
            reductions.push(report);
        }
        for r in &reductions[1..] {
            prop_assert_eq!(r, &reductions[0], "reduction depends on thread count");
        }

        // The shared-schedule variant (common random numbers) must agree
        // with scalar `run_on` against the same schedule.
        let schedule = EventSchedule::generate(&pmf, slots, seed).expect("schedule");
        let on_scalar: Vec<_> = seeds
            .iter()
            .map(|&s| {
                sim.clone()
                    .seed(s)
                    .run_on(&schedule, policy, &mut |i: usize| recharge.make(i))
                    .expect("scalar run_on")
            })
            .collect();
        let on_batched = ReplicationBatch::new(sim.clone(), reps)
            .expect("valid")
            .threads(2)
            .run_on(&schedule, policy, &factory)
            .expect("batched run_on");
        prop_assert_eq!(&on_batched.reports, &on_scalar, "shared-schedule reports diverged");
    }
}
