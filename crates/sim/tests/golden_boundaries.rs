//! Golden digests of the slot kernel on hand-placed event schedules.
//!
//! `golden_reports.rs` runs sampled schedules, which rarely put an event
//! exactly on a configuration boundary. This suite places them there on
//! purpose, through [`EventSchedule::from_slots`]:
//!
//! - no event at all;
//! - events at slot 1 and at the last slot (and one just past the horizon,
//!   which the run must ignore);
//! - runs of events one slot apart;
//! - the warm-up, the trace window and the battery-sample period each
//!   ending one slot before, on, and one slot after an event;
//! - outage windows opening and closing on event slots.
//!
//! Every case is crossed with a full-information (greedy) and a
//! partial-information (clustering) policy, 1 and 3 sensors, rotating and
//! independent coordination, and a closed-form and an opaque recharge
//! process. Each combination runs through `run_on` and `run_on_observed`
//! (with a hook-recording observer); every `SimReport` field and the exact
//! hook sequence with its arguments fold into one 64-bit FNV-1a digest per
//! case. The digests were recorded from a kernel that tested every slot
//! for an event, the warm-up, the trace window and a battery sample; a
//! kernel that batches slots between those boundaries must reproduce them
//! bit for bit (a failing run prints the actual digests).

use evcap_core::{ActivationPolicy, ClusteringPolicy, EnergyBudget, GreedyPolicy, SlotAssignment};
use evcap_dist::{Discretizer, SlotPmf, Weibull};
use evcap_energy::{BernoulliRecharge, ConsumptionModel, Energy, RechargeProcess};
use evcap_obs::{Observer, SlotOutcome};
use evcap_sim::{EventSchedule, OutagePlan, OutageWindow, SimReport, Simulation};

/// The horizon of every case.
const SLOTS: u64 = 60;

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

/// A recharge process without a closed form: stateful, drawing one RNG word
/// per slot and delivering in bursts.
struct Bursty {
    credit: u32,
}

impl RechargeProcess for Bursty {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> Energy {
        self.credit += rng.next_u32() % 5;
        if self.credit >= 6 {
            self.credit -= 6;
            Energy::from_units(2.5)
        } else {
            Energy::ZERO
        }
    }

    fn mean_rate(&self) -> f64 {
        0.83
    }

    fn label(&self) -> String {
        "bursty".into()
    }

    fn reset(&mut self) {
        self.credit = 0;
    }
}

/// One hand-placed boundary case: a schedule plus the run options that
/// put a boundary next to its events.
struct Case {
    name: String,
    events: Vec<u64>,
    /// The schedule's own horizon (at least [`SLOTS`]).
    schedule_slots: u64,
    warmup: u64,
    trace: usize,
    battery_every: Option<u64>,
    outages: Vec<OutageWindow>,
}

fn case(name: &str, events: &[u64]) -> Case {
    Case {
        name: name.to_string(),
        events: events.to_vec(),
        schedule_slots: SLOTS,
        warmup: 0,
        trace: 0,
        battery_every: None,
        outages: Vec::new(),
    }
}

/// Events around the pivot slot 30 that the boundary cases sit beside.
const AROUND_30: [u64; 4] = [10, 30, 31, 45];

fn cases() -> Vec<Case> {
    let mut out = vec![
        case("no events", &[]),
        Case {
            warmup: 5,
            trace: 7,
            battery_every: Some(11),
            ..case("no events, instrumented", &[])
        },
        Case {
            schedule_slots: SLOTS + 5,
            ..case("first and last slot", &[1, 20, SLOTS, SLOTS + 1])
        },
        case("gaps of one", &[4, 5, 6, 7, 25, 26, 40, 41, 42, 59, 60]),
    ];
    for end in [29, 30, 31] {
        out.push(Case {
            warmup: end,
            ..case(&format!("warm-up ends at {end}"), &AROUND_30)
        });
        out.push(Case {
            trace: end as usize,
            ..case(&format!("trace ends at {end}"), &AROUND_30)
        });
        out.push(Case {
            battery_every: Some(end),
            ..case(&format!("battery sampled every {end}"), &AROUND_30)
        });
    }
    let window = |sensor, from, to| OutageWindow { sensor, from, to };
    out.push(Case {
        outages: vec![window(0, 10, 30), window(1, 30, 45), window(2, 45, 45)],
        ..case("outage edges", &AROUND_30)
    });
    out.push(Case {
        warmup: 30,
        trace: 31,
        battery_every: Some(10),
        outages: vec![window(0, 31, 45), window(1, 10, 10)],
        ..case("every boundary at once", &AROUND_30)
    });
    out
}

fn pmf() -> SlotPmf {
    Discretizer::new()
        .max_horizon(256)
        .discretize(&Weibull::new(12.0, 2.0).unwrap())
        .unwrap()
}

/// One case's digest over the whole cross of policies, fleet shapes,
/// coordination modes and recharge processes.
fn case_digest(case: &Case, policies: &[&dyn ActivationPolicy], pmf: &SlotPmf, index: u64) -> u64 {
    let schedule = EventSchedule::from_slots(case.events.clone(), case.schedule_slots);
    let mut h = Fnv::new();
    let mut combo = 0u64;
    for &policy in policies {
        for sensors in [1usize, 3] {
            for independent in [false, true] {
                for opaque in [false, true] {
                    combo += 1;
                    let mut sim = Simulation::builder(pmf)
                        .slots(SLOTS)
                        .seed(index * 1_009 + combo)
                        .sensors(sensors)
                        .battery(Energy::from_units(14.0))
                        .warmup_slots(case.warmup)
                        .trace_slots(case.trace)
                        .outages(OutagePlan::from_windows(case.outages.clone()));
                    if let Some(every) = case.battery_every {
                        sim = sim.record_battery_every(every);
                    }
                    sim = if independent {
                        sim.independent()
                    } else {
                        sim.assignment(SlotAssignment::RoundRobin)
                    };
                    let mut make = |s: usize| -> Box<dyn RechargeProcess> {
                        if opaque {
                            Box::new(Bursty { credit: s as u32 })
                        } else {
                            let c = Energy::from_units(1.5 + 0.5 * s as f64);
                            Box::new(BernoulliRecharge::new(0.55, c).unwrap())
                        }
                    };
                    let plain = sim.run_on(&schedule, policy, &mut make).unwrap();
                    h.report(&plain);
                    let mut hooks = HookLog(Fnv::new());
                    let observed = sim
                        .run_on_observed(&schedule, policy, &mut make, &mut hooks)
                        .unwrap();
                    assert_eq!(
                        observed, plain,
                        "{}: an observer must not perturb the run",
                        case.name
                    );
                    h.u64(hooks.0 .0);
                }
            }
        }
    }
    h.0
}

#[test]
fn boundary_reports_match_golden_digests() {
    let pmf = pmf();
    let greedy = GreedyPolicy::optimize(
        &pmf,
        EnergyBudget::per_slot(0.6),
        &ConsumptionModel::paper_defaults(),
    )
    .unwrap();
    let clustering = ClusteringPolicy::new(3, 8, 16, 0.4, 0.7, 1.0).unwrap();
    let policies: [&dyn ActivationPolicy; 2] = [&greedy, &clustering];
    let actual: Vec<u64> = cases()
        .iter()
        .enumerate()
        .map(|(i, case)| case_digest(case, &policies, &pmf, i as u64))
        .collect();
    let expected: [u64; 15] = [
        0x5d1f5b13000f432b, // no events
        0x24007530d236e25c, // no events, instrumented
        0xf58be6a5d9a4f5fb, // first and last slot
        0xb9005d7b77eda3d8, // gaps of one
        0xf65758b759ffe4f8, // warm-up ends at 29
        0xfcd876501ac64d5a, // trace ends at 29
        0x51ceca59d9298c5e, // battery sampled every 29
        0xa7432e11ab560d14, // warm-up ends at 30
        0x833cc7c5eba0651f, // trace ends at 30
        0x67c5ad2529050f95, // battery sampled every 30
        0x44476ad1d6f1a9bf, // warm-up ends at 31
        0x019bf71ea522a555, // trace ends at 31
        0x41b089e94ca3345c, // battery sampled every 31
        0xf11a91fc96ce103a, // outage edges
        0x6af7427369914bd6, // every boundary at once
    ];
    if actual != expected {
        let table: Vec<String> = cases()
            .iter()
            .zip(&actual)
            .map(|(case, d)| format!("0x{d:016x}, // {}", case.name))
            .collect();
        panic!(
            "engine outputs differ from the golden digests\nactual:\n{}",
            table.join("\n")
        );
    }
}
