//! Golden digests of the engine's per-seed outputs.
//!
//! Every case of a configuration grid runs through each public entry point
//! — `run`, `run_observed` (with a hook-recording observer and with the
//! standard `ObsSuite`), `ReplicationBatch::run` on one and two worker
//! threads, and `run_on` against a shared schedule — and everything those
//! runs return is folded into a 64-bit FNV-1a digest: every `SimReport`
//! field (traces and battery samples included), every `BatchReport` field,
//! the exact sequence of observer hooks with their arguments, and the
//! `ObsSuite` summary and JSONL export. FNV-1a is spelled out here rather
//! than borrowed from `std::hash`, whose output may change between
//! toolchains.
//!
//! The committed digests freeze what the engine produced when they were
//! recorded. A refactor of the slot kernel must reproduce them bit for bit;
//! a deliberate change of simulation semantics must say so and regenerate
//! them (a failing run prints the full table of actual digests).
//!
//! Grid, each row crossed with every other: four inter-arrival families ×
//! six policies (greedy, clustering, myopic, aggressive, periodic, and a
//! battery-reading policy that exercises the context path) × 1 and 3
//! sensors × five recharge processes (Bernoulli, periodic, uniform,
//! constant, and one without a closed form) × four coordination modes
//! (round-robin, independent, blocks, weighted) × four run variants
//! (plain; warm-up + trace + battery sampling; outages; a battery that
//! starts below the activation threshold).

use evcap_core::{
    ActivationPolicy, AggressivePolicy, ClusteringPolicy, DecisionContext, EnergyBudget,
    EvalOptions, GreedyPolicy, InfoModel, MyopicPolicy, PeriodicPolicy, SlotAssignment,
};
use evcap_dist::{
    Discretizer, Exponential, InterArrival, Pareto, SlotPmf, UniformArrival, Weibull,
};
use evcap_energy::{
    BernoulliRecharge, ConstantRecharge, ConsumptionModel, Energy, PeriodicRecharge,
    RechargeProcess, UniformRecharge,
};
use evcap_obs::{JsonlSink, ObsConfig, ObsSuite, Observer, SlotOutcome};
use evcap_sim::{
    BatchReport, EventSchedule, OutagePlan, OutageWindow, ReplicationBatch, SimReport, Simulation,
};

const SLOTS: u64 = 3_000;
const REPS: usize = 2;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    fn energy(&mut self, e: Energy) {
        self.u64(e.as_millis() as u64);
    }

    fn report(&mut self, r: &SimReport) {
        self.u64(r.slots);
        self.u64(r.events);
        self.u64(r.captures);
        self.usize(r.sensors.len());
        for s in &r.sensors {
            self.u64(s.activations);
            self.u64(s.captures);
            self.u64(s.forced_idle);
            self.u64(s.outage_slots);
            self.energy(s.consumed);
            self.energy(s.recharged);
            self.energy(s.overflow);
            self.energy(s.initial_level);
            self.energy(s.final_level);
        }
        self.u64(r.measured_slots);
        self.u64(r.age_sum);
        self.u64(r.peak_age);
        self.usize(r.trace.len());
        for t in &r.trace {
            self.u64(t.slot);
            self.usize(t.owner);
            self.usize(t.state);
            self.bool(t.wanted_active);
            self.bool(t.active);
            self.bool(t.event);
            self.bool(t.captured);
        }
        self.usize(r.battery_trace.len());
        for b in &r.battery_trace {
            self.u64(b.slot);
            self.usize(b.levels.len());
            for &level in &b.levels {
                self.energy(level);
            }
        }
    }

    fn batch(&mut self, b: &BatchReport) {
        self.u64(b.slots);
        self.usize(b.seeds.len());
        for &s in &b.seeds {
            self.u64(s);
        }
        for r in &b.reports {
            self.report(r);
        }
        for summary in [&b.qom, &b.discharge, &b.mean_age] {
            self.usize(summary.n);
            self.f64(summary.mean);
            self.f64(summary.std_dev);
        }
        self.u64(b.events);
        self.u64(b.captures);
        self.u64(b.activations);
        self.u64(b.forced_idle);
        self.f64(b.mean_final_fill);
        self.bool(b.mean_capture_gap.is_some());
        self.f64(b.mean_capture_gap.unwrap_or(0.0));
        self.u64(b.peak_age);
    }
}

/// Folds every observer hook, in call order and with every argument, into
/// a digest.
struct HookLog(Fnv);

impl Observer for HookLog {
    fn on_slot(&mut self, o: &SlotOutcome) {
        self.0.bytes(b"S");
        self.0.u64(o.slot);
        self.0.usize(o.owner);
        self.0.usize(o.state);
        self.0.bool(o.wanted);
        self.0.bool(o.active);
        self.0.bool(o.event);
        self.0.bool(o.captured);
        self.0.bool(o.measured);
    }

    fn on_capture(&mut self, slot: u64, sensor: usize, gap: u64) {
        self.0.bytes(b"C");
        self.0.u64(slot);
        self.0.usize(sensor);
        self.0.u64(gap);
    }

    fn on_miss(&mut self, slot: u64) {
        self.0.bytes(b"M");
        self.0.u64(slot);
    }

    fn on_forced_idle(&mut self, slot: u64, sensor: usize, battery_fraction: f64) {
        self.0.bytes(b"F");
        self.0.u64(slot);
        self.0.usize(sensor);
        self.0.f64(battery_fraction);
    }

    fn on_outage(&mut self, slot: u64, sensor: usize) {
        self.0.bytes(b"O");
        self.0.u64(slot);
        self.0.usize(sensor);
    }

    fn on_recharge_overflow(&mut self, slot: u64, sensor: usize, lost_units: f64) {
        self.0.bytes(b"R");
        self.0.u64(slot);
        self.0.usize(sensor);
        self.0.f64(lost_units);
    }

    fn wants_battery_levels(&self) -> bool {
        true
    }

    fn on_battery_levels(&mut self, slot: u64, fractions: &[f64]) {
        self.0.bytes(b"B");
        self.0.u64(slot);
        for &f in fractions {
            self.0.f64(f);
        }
    }
}

/// A context-reading policy (no table): activates more eagerly the fuller
/// its battery, and skips every seventh slot, so the engine's battery
/// fraction and slot index both reach the decision.
struct BatteryAware;

impl ActivationPolicy for BatteryAware {
    fn probability(&self, ctx: &DecisionContext) -> f64 {
        if ctx.slot.is_multiple_of(7) {
            0.0
        } else if ctx.state >= 60 {
            1.0
        } else {
            (ctx.battery_fraction * (ctx.state as f64 / 30.0)).min(1.0)
        }
    }

    fn info_model(&self) -> InfoModel {
        InfoModel::Partial
    }

    fn label(&self) -> String {
        "battery-aware".into()
    }
}

/// A recharge process without a closed form ([`evcap_energy::RechargeKind::Other`]):
/// stateful, and drawing a variable number of RNG words per slot, so any
/// change in draw order shows.
struct Bursty {
    credit: u32,
}

impl RechargeProcess for Bursty {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Energy {
        let word = rng.next_u32();
        self.credit += word % 5;
        if self.credit >= 6 {
            self.credit -= 6;
            let extra = rng.next_u32() % 1_500;
            Energy::from_millis(1_000 + i64::from(extra))
        } else {
            Energy::ZERO
        }
    }

    fn mean_rate(&self) -> f64 {
        0.58
    }

    fn label(&self) -> String {
        "bursty".into()
    }

    fn reset(&mut self) {
        self.credit = 0;
    }
}

#[derive(Debug, Clone, Copy)]
enum Recharge {
    Bernoulli,
    Periodic,
    Uniform,
    Constant,
    Other,
}

impl Recharge {
    const ALL: [Recharge; 5] = [
        Recharge::Bernoulli,
        Recharge::Periodic,
        Recharge::Uniform,
        Recharge::Constant,
        Recharge::Other,
    ];

    /// One process per sensor, parameters staggered by sensor index.
    fn make(self, sensor: usize) -> Box<dyn RechargeProcess> {
        let bump = 1.0 + 0.25 * sensor as f64;
        match self {
            Recharge::Bernoulli => {
                Box::new(BernoulliRecharge::new(0.45, Energy::from_units(1.2 * bump)).unwrap())
            }
            Recharge::Periodic => Box::new(
                PeriodicRecharge::new(Energy::from_units(3.5 * bump), 6 + sensor as u32).unwrap(),
            ),
            Recharge::Uniform => Box::new(
                UniformRecharge::new(Energy::from_units(0.1), Energy::from_units(1.1 * bump))
                    .unwrap(),
            ),
            Recharge::Constant => {
                Box::new(ConstantRecharge::new(Energy::from_units(0.55 * bump)).unwrap())
            }
            Recharge::Other => Box::new(Bursty {
                credit: sensor as u32,
            }),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Coord {
    RoundRobin,
    Independent,
    Blocks,
    Weighted,
}

impl Coord {
    const ALL: [Coord; 4] = [
        Coord::RoundRobin,
        Coord::Independent,
        Coord::Blocks,
        Coord::Weighted,
    ];
}

#[derive(Debug, Clone, Copy)]
enum Variant {
    Plain,
    Instrumented,
    Outages,
    LowStart,
}

impl Variant {
    const ALL: [Variant; 4] = [
        Variant::Plain,
        Variant::Instrumented,
        Variant::Outages,
        Variant::LowStart,
    ];
}

fn configure<'a>(
    pmf: &'a SlotPmf,
    sensors: usize,
    coord: Coord,
    variant: Variant,
    seed: u64,
) -> Simulation<'a> {
    let mut sim = Simulation::builder(pmf)
        .slots(SLOTS)
        .seed(seed)
        .sensors(sensors)
        .battery(Energy::from_units(60.0));
    sim = match coord {
        Coord::RoundRobin => sim.assignment(SlotAssignment::RoundRobin),
        Coord::Independent => sim.independent(),
        Coord::Blocks => sim.assignment(SlotAssignment::Blocks { block_len: 5 }),
        Coord::Weighted => sim.assignment(SlotAssignment::weighted(&[2, 1, 3]).unwrap()),
    };
    match variant {
        Variant::Plain => sim,
        Variant::Instrumented => sim
            .warmup_slots(400)
            .trace_slots(64)
            .record_battery_every(97),
        Variant::Outages => sim.outages(OutagePlan::from_windows(vec![
            OutageWindow {
                sensor: 0,
                from: 100,
                to: 400,
            },
            OutageWindow {
                sensor: 1,
                from: 1_000,
                to: 1_300,
            },
            OutageWindow {
                sensor: 0,
                from: 2_000,
                to: 2_100,
            },
        ])),
        Variant::LowStart => sim.initial_level(Energy::from_units(2.5)),
    }
}

/// Digest of one grid case across every entry point.
fn case_digest(
    pmf: &SlotPmf,
    policy: &(dyn ActivationPolicy + Sync),
    sensors: usize,
    recharge: Recharge,
    coord: Coord,
    variant: Variant,
    seed: u64,
) -> u64 {
    let sim = configure(pmf, sensors, coord, variant, seed);
    let mut make = |s: usize| recharge.make(s);
    let mut h = Fnv::new();

    let plain = sim.run(policy, &mut make).unwrap();
    h.report(&plain);

    let mut hooks = HookLog(Fnv::new());
    let hooked = sim.run_observed(policy, &mut make, &mut hooks).unwrap();
    assert_eq!(hooked, plain, "an observer must not perturb the run");
    h.u64(hooks.0 .0);

    let mut suite = ObsSuite::new(ObsConfig {
        qom_window: 250,
        battery_period: 7,
        ..ObsConfig::default()
    });
    let observed = sim.run_observed(policy, &mut make, &mut suite).unwrap();
    assert_eq!(observed, plain, "an observer must not perturb the run");
    suite.seal();
    h.bytes(suite.summary().as_bytes());
    let mut sink = JsonlSink::new(Vec::new());
    suite.export(&mut sink).unwrap();
    h.bytes(&sink.finish().unwrap());

    let factory = move |s: usize| recharge.make(s);
    let batch = ReplicationBatch::new(sim.clone(), REPS).unwrap();
    let one = batch.clone().threads(1).run(policy, &factory).unwrap();
    let two = batch.clone().threads(2).run(policy, &factory).unwrap();
    assert_eq!(
        one, two,
        "the reduction must not depend on the thread count"
    );
    assert_eq!(one.reports[0], plain, "seed 0 of a batch is the single run");
    h.batch(&one);

    let schedule = EventSchedule::generate(pmf, SLOTS, seed ^ 0x5EED).unwrap();
    let on = sim.run_on(&schedule, policy, &mut make).unwrap();
    h.report(&on);
    let on_batch = batch
        .threads(2)
        .run_on(&schedule, policy, &factory)
        .unwrap();
    assert_eq!(
        on_batch.reports[0], on,
        "seed 0 of a batch is the single run"
    );
    h.batch(&on_batch);

    h.0
}

fn pmf_of(dist: &dyn InterArrival) -> SlotPmf {
    Discretizer::new()
        .max_horizon(512)
        .discretize(dist)
        .unwrap()
}

/// Digests of one distribution family's slice of the grid, one per
/// (policy, sensor count) group in grid order.
fn family_digests(dist: &dyn InterArrival, family: u64) -> Vec<u64> {
    let pmf = pmf_of(dist);
    let consumption = ConsumptionModel::paper_defaults();
    let budget = EnergyBudget::per_slot(0.5);
    let greedy = GreedyPolicy::optimize(&pmf, budget, &consumption).unwrap();
    let clustering = ClusteringPolicy::new(4, 12, 30, 0.35, 0.6, 1.0).unwrap();
    let myopic =
        MyopicPolicy::derive(&pmf, budget, &consumption, 64, EvalOptions::default()).unwrap();
    let aggressive = AggressivePolicy::new();
    let periodic = PeriodicPolicy::new(3, 17).unwrap();
    let policies: [&(dyn ActivationPolicy + Sync); 6] = [
        &greedy,
        &clustering,
        &myopic,
        &aggressive,
        &periodic,
        &BatteryAware,
    ];

    let mut digests = Vec::new();
    let mut case = 0u64;
    for policy in policies {
        for sensors in [1usize, 3] {
            let mut group = Fnv::new();
            for recharge in Recharge::ALL {
                for coord in Coord::ALL {
                    for variant in Variant::ALL {
                        case += 1;
                        let seed = family * 100_003 + case * 7_919;
                        group.u64(case_digest(
                            &pmf, policy, sensors, recharge, coord, variant, seed,
                        ));
                    }
                }
            }
            digests.push(group.0);
        }
    }
    digests
}

fn check(family: &str, actual: &[u64], expected: &[u64]) {
    if actual != expected {
        let table: Vec<String> = actual.iter().map(|d| format!("0x{d:016x}")).collect();
        panic!(
            "{family}: engine outputs differ from the golden digests\nactual: [{}]",
            table.join(", ")
        );
    }
}

#[test]
fn weibull_reports_match_golden_digests() {
    let actual = family_digests(&Weibull::new(18.0, 2.5).unwrap(), 1);
    check(
        "weibull",
        &actual,
        &[
            0x25e183fed547cfde,
            0x3196b23fb9899b74,
            0x090ffb07fbb30488,
            0x5bcf0bc8975df595,
            0xfb199a540063bec2,
            0xf474f917775db04f,
            0xabc5e266782a95b2,
            0x26a0f4d321297a56,
            0x1632b0d2865ab450,
            0xd2bd066e32c8bce6,
            0x3dc7f863b53b7c9d,
            0x360ac5020cf778cc,
        ],
    );
}

#[test]
fn exponential_reports_match_golden_digests() {
    let actual = family_digests(&Exponential::new(0.06).unwrap(), 2);
    check(
        "exponential",
        &actual,
        &[
            0xba0c5210a76e3cb7,
            0x66a89319618ca842,
            0x61e4314203317a9b,
            0x661a7abd6d77776a,
            0xc3cbe559b5be4f30,
            0x338e7af080652e8d,
            0xd0daf06f4ade8cfe,
            0x744c575731816fd3,
            0xab008a0493122355,
            0xe753440f55591967,
            0xc98bd776ff18d156,
            0x53fd5d60ed55d9a8,
        ],
    );
}

#[test]
fn pareto_reports_match_golden_digests() {
    let actual = family_digests(&Pareto::new(1.8, 6.0).unwrap(), 3);
    check(
        "pareto",
        &actual,
        &[
            0x875e13ca4a817752,
            0x62753c22897070f1,
            0x532f9637bd0aae9f,
            0xf07df112ddea314e,
            0x8ee17924121da20b,
            0xa21a37359a4d0d6f,
            0xf69895cedc4fd20d,
            0x84927ce1ae55e3f1,
            0x6f4fd757bb241bd4,
            0xa22ed74b08732c00,
            0xbd574266d5869fe0,
            0x20ffcb1dbfcaedf1,
        ],
    );
}

#[test]
fn uniform_reports_match_golden_digests() {
    let actual = family_digests(&UniformArrival::new(4.0, 30.0).unwrap(), 4);
    check(
        "uniform",
        &actual,
        &[
            0xda1124df99dfe228,
            0xd056633b7bfe0435,
            0xf44823a0247b0f54,
            0xb1b06e8881bdf0e9,
            0x2aedf1bb504f1389,
            0x1ac1568ce9050bf1,
            0x3fd05290ba0d7ee3,
            0x50d659b998da2d86,
            0xcadce0928a1eee99,
            0x61165f4b8ff9310a,
            0xec9792a0ed8c3ccf,
            0x3b251d4f9aeeadcb,
        ],
    );
}
