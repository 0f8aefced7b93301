//! Pins the exact `SensorStats` of runs whose energy totals reach the `i64`
//! limits.
//!
//! A sensor's `consumed`, `recharged` and `overflow` totals are `Energy`
//! quantities, and `Energy` arithmetic saturates at the `i64` bounds. These
//! cases drive the totals (and, through a process that delivers negative
//! amounts, the battery level itself) into saturation, so any change in how
//! the slot kernel accumulates them shows:
//!
//! - an opaque process delivering `i64::MAX / 2` milli-units per slot, into
//!   the default battery and into one of capacity `i64::MAX`;
//! - a Bernoulli process delivering just under `Energy::from_units`'s limit
//!   into a battery of similar size, with costs of similar size;
//! - opaque processes delivering negative amounts: a small drain, a huge
//!   one, and a cycle that saturates the totals upward and then comes back
//!   down.
//!
//! The expected values were recorded from a kernel that added every total
//! in `Energy`'s saturating steps; any other way of accumulating them must
//! reproduce these values exactly.

use evcap_core::{
    ActivationPolicy, AggressivePolicy, ClusteringPolicy, EnergyBudget, GreedyPolicy,
    SlotAssignment,
};
use evcap_dist::{Discretizer, SlotPmf, Weibull};
use evcap_energy::{BernoulliRecharge, ConsumptionModel, Energy, RechargeProcess};
use evcap_sim::{EventSchedule, SensorStats, Simulation};

const SLOTS: u64 = 48;
const MAX: i64 = i64::MAX;
const MIN: i64 = i64::MIN;
const HALF_MAX: i64 = i64::MAX / 2;
const HALF_MIN: i64 = i64::MIN / 2;

/// Just under `Energy::from_units`'s limit of `i64::MAX / 4` milli-units.
const HUGE_UNITS: f64 = 2.3e15;

/// An opaque process cycling through a fixed list of deliveries in
/// milli-units.
struct Cycle {
    amounts: &'static [i64],
    at: usize,
}

impl RechargeProcess for Cycle {
    fn next(&mut self, _rng: &mut dyn rand::RngCore) -> Energy {
        let amount = self.amounts[self.at % self.amounts.len()];
        self.at += 1;
        Energy::from_millis(amount)
    }

    fn mean_rate(&self) -> f64 {
        0.0
    }

    fn label(&self) -> String {
        "cycle".into()
    }

    fn reset(&mut self) {
        self.at = 0;
    }
}

fn cycle(amounts: &'static [i64]) -> Box<dyn RechargeProcess> {
    Box::new(Cycle { amounts, at: 0 })
}

fn huge_bernoulli(q: f64) -> Box<dyn RechargeProcess> {
    Box::new(BernoulliRecharge::new(q, Energy::from_units(HUGE_UNITS)).unwrap())
}

/// Expected stats: `[activations, captures, forced_idle, outage_slots]`
/// and `[consumed, recharged, overflow, initial, final]` in milli-units.
fn stats(counts: [u64; 4], energies: [i64; 5]) -> SensorStats {
    let [activations, captures, forced_idle, outage_slots] = counts;
    let [consumed, recharged, overflow, initial, last] = energies.map(Energy::from_millis);
    SensorStats {
        activations,
        captures,
        forced_idle,
        outage_slots,
        consumed,
        recharged,
        overflow,
        initial_level: initial,
        final_level: last,
    }
}

fn pmf() -> SlotPmf {
    Discretizer::new()
        .max_horizon(128)
        .discretize(&Weibull::new(6.0, 2.0).unwrap())
        .unwrap()
}

fn check(
    name: &str,
    sim: &Simulation<'_>,
    policy: &dyn ActivationPolicy,
    make: &mut dyn FnMut(usize) -> Box<dyn RechargeProcess>,
    expected: &[SensorStats],
) {
    let schedule =
        EventSchedule::from_slots(vec![1, 2, 3, 5, 8, 13, 21, 22, 34, 40, 47, 48], SLOTS);
    let report = sim.run_on(&schedule, policy, make).unwrap();
    assert_eq!(report.sensors, expected, "{name}");
}

#[test]
fn opaque_deliveries_of_half_max_saturate_the_totals() {
    let pmf = pmf();
    let aggressive = AggressivePolicy::new();
    let sim = Simulation::builder(&pmf).slots(SLOTS).seed(3);
    check(
        "default battery",
        &sim,
        &aggressive,
        &mut |_| cycle(&[HALF_MAX]),
        &[stats(
            [48, 12, 0, 0],
            [120_000, 613_000, MAX, 500_000, 993_000],
        )],
    );
    let full_range = sim
        .clone()
        .battery(Energy::from_millis(MAX))
        .initial_level(Energy::ZERO);
    check(
        "capacity i64::MAX",
        &full_range,
        &aggressive,
        &mut |_| cycle(&[HALF_MAX]),
        &[stats([48, 12, 0, 0], [120_000, MAX, MAX, 0, MAX - 7_000])],
    );
    check(
        "capacity i64::MAX, three rotating sensors",
        &full_range.clone().sensors(3),
        &aggressive,
        &mut |s| match s {
            1 => cycle(&[HALF_MAX, 0, 7]),
            _ => cycle(&[HALF_MAX]),
        },
        &[
            stats([16, 5, 0, 0], [46_000, MAX, MAX, 0, MAX]),
            stats([16, 4, 0, 0], [40_000, MAX, MAX, 0, MAX - 6_993]),
            stats([16, 3, 0, 0], [34_000, MAX, MAX, 0, MAX - 7_000]),
        ],
    );
}

#[test]
fn bernoulli_deliveries_near_the_unit_limit_saturate_the_totals() {
    let pmf = pmf();
    let costs = ConsumptionModel::new(
        Energy::from_units(HUGE_UNITS / 6.0),
        Energy::from_units(HUGE_UNITS / 3.0),
    )
    .unwrap();
    let sim = Simulation::builder(&pmf)
        .slots(SLOTS)
        .seed(5)
        .consumption(costs)
        .battery(Energy::from_units(HUGE_UNITS * 0.9));
    let initial = 1_035_000_000_000_000_000;
    let drained = 920_000_000_000_000_064;
    check(
        "aggressive",
        &sim,
        &AggressivePolicy::new(),
        &mut |_| huge_bernoulli(0.75),
        &[stats([42, 11, 6, 0], [MAX, MAX, MAX, initial, drained])],
    );
    let greedy = GreedyPolicy::optimize(
        &pmf,
        EnergyBudget::per_slot(0.4),
        &ConsumptionModel::paper_defaults(),
    )
    .unwrap();
    check(
        "greedy",
        &sim,
        &greedy,
        &mut |_| huge_bernoulli(0.75),
        &[stats(
            [7, 2, 0, 0],
            [
                4_216_666_666_666_666_432,
                5_251_666_666_666_666_432,
                MAX,
                initial,
                2_070_000_000_000_000_000,
            ],
        )],
    );
    check(
        "three independent sensors",
        &sim.clone().sensors(3).independent(),
        &AggressivePolicy::new(),
        &mut |_| huge_bernoulli(0.75),
        &[
            stats([42, 11, 6, 0], [MAX, MAX, MAX, initial, drained]),
            stats([43, 12, 5, 0], [MAX, MAX, MAX, initial, drained]),
            stats([45, 11, 3, 0], [MAX, MAX, MAX, initial, drained]),
        ],
    );
}

#[test]
fn negative_opaque_deliveries_keep_their_saturating_arithmetic() {
    let pmf = pmf();
    let aggressive = AggressivePolicy::new();
    let sim = Simulation::builder(&pmf).slots(SLOTS).seed(7);
    check(
        "small drain",
        &sim,
        &aggressive,
        &mut |_| cycle(&[-7, 3, 0]),
        &[stats([48, 12, 0, 0], [120_000, -64, 0, 500_000, 379_936])],
    );
    check(
        "huge drain",
        &sim,
        &aggressive,
        &mut |_| cycle(&[HALF_MIN]),
        &[stats([0, 0, 48, 0], [0, MIN, 0, 500_000, MIN])],
    );
    let full_range = sim
        .clone()
        .battery(Energy::from_millis(MAX))
        .initial_level(Energy::ZERO);
    // Saturating per step, the total absorbed pins at `i64::MAX` and then
    // falls back, so it no longer balances the level: 0 − 1 − 83 000 is not
    // the final −8 001.
    check(
        "up to the limit and back",
        &full_range,
        &aggressive,
        &mut |_| {
            cycle(&[
                HALF_MAX, HALF_MAX, HALF_MAX, HALF_MAX, HALF_MIN, HALF_MIN, -1_000,
            ])
        },
        &[stats([35, 8, 13, 0], [83_000, -1, MAX, 0, -8_001])],
    );
    check(
        "mixed fleet",
        &full_range
            .clone()
            .sensors(3)
            .assignment(SlotAssignment::RoundRobin),
        &ClusteringPolicy::new(2, 4, 9, 0.5, 0.8, 1.0).unwrap(),
        &mut |s| match s {
            0 => cycle(&[HALF_MIN, HALF_MAX, HALF_MAX]),
            1 => huge_bernoulli(0.5),
            _ => cycle(&[-3, HALF_MAX]),
        },
        &[
            stats([10, 3, 0, 0], [28_000, MAX, MAX, 0, MAX]),
            stats([6, 1, 0, 0], [12_000, MAX, MAX, 0, MAX]),
            stats([8, 1, 0, 0], [14_000, MAX, MAX, 0, MAX]),
        ],
    );
}
