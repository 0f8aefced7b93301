//! Proves the slot kernel's steady-state loop is allocation-free, through a
//! batch and through single runs: a table policy on one sensor and on a
//! rotating fleet, an observed run, and runs that walk quiet and hot runs
//! in bulk (an all-Bernoulli fleet, a periodic one-sensor run). All per-run
//! scratch (lanes,
//! recharge classification, trace and observer buffers) is set up before
//! slot 1, so the total allocation count of a run is independent of the
//! slot count — a 4× longer run over the same event schedule allocates as
//! many times as the short one.
//!
//! This lives in its own test binary because it installs a counting global
//! allocator (and so must not share a process with tests that measure
//! anything else).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::{Mutex, MutexGuard};

use evcap_core::{ActivationPolicy, AggressivePolicy, ClusteringPolicy, SlotAssignment};
use evcap_dist::{Discretizer, SlotPmf, Weibull};
use evcap_energy::{BernoulliRecharge, Energy, PeriodicRecharge, RechargeProcess};
use evcap_obs::{Observer, SlotOutcome};
use evcap_sim::{BatchReport, EventSchedule, ReplicationBatch, SimReport, Simulation};

/// Counts every heap allocation made through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counter is process-wide, so the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn weibull_pmf() -> SlotPmf {
    Discretizer::new()
        .discretize(&Weibull::new(40.0, 3.0).unwrap())
        .unwrap()
}

fn bernoulli(_: usize) -> Box<dyn RechargeProcess> {
    Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap())
}

fn periodic(_: usize) -> Box<dyn RechargeProcess> {
    Box::new(PeriodicRecharge::new(Energy::from_units(5.0), 10).unwrap())
}

/// Runs the batch on a shared schedule at one worker (the sequential path —
/// no thread spawns, so every allocation belongs to the engine itself) and
/// returns how many allocations the whole run made.
fn measured_run(sim: &Simulation<'_>, schedule: &EventSchedule, reps: usize) -> (u64, BatchReport) {
    let factory = |_: usize| {
        Box::new(BernoulliRecharge::new(0.5, Energy::from_units(1.0)).unwrap())
            as Box<dyn RechargeProcess>
    };
    let batch = ReplicationBatch::new(sim.clone(), reps).unwrap().threads(1);
    let before = allocations();
    let report = batch
        .run_on(schedule, &AggressivePolicy::new(), &factory)
        .unwrap();
    (allocations() - before, report)
}

#[test]
fn steady_state_slot_loop_allocates_nothing() {
    let _turn = serial();
    let pmf = weibull_pmf();
    let slots = 5_000u64;
    // One schedule long enough for the 4× run, shared by both, so schedule
    // construction cannot contribute a slot-dependent allocation count.
    let schedule = EventSchedule::generate(&pmf, 4 * slots, 99).unwrap();

    let base = Simulation::builder(&pmf)
        .seed(11)
        .battery(Energy::from_units(200.0))
        .sensors(2);
    let short = base.clone().slots(slots);
    let long = base.clone().slots(4 * slots);

    // Warm-up pass to absorb any one-time lazy initialization.
    let _ = measured_run(&short, &schedule, 4);

    // The process-wide counter also sees the test harness's own background
    // threads, which allocate a couple of times at unpredictable moments.
    // The engine's true cost is the minimum over a few attempts; a genuine
    // per-slot leak would add ~15 000 allocations to the long run, far
    // beyond any background jitter.
    let min_allocs = |sim: &Simulation<'_>| {
        (0..5)
            .map(|_| measured_run(sim, &schedule, 4).0)
            .min()
            .unwrap()
    };
    let (_, short_report) = measured_run(&short, &schedule, 4);
    let (_, long_report) = measured_run(&long, &schedule, 4);
    let short_allocs = min_allocs(&short);
    let long_allocs = min_allocs(&long);

    // Sanity: both runs actually simulated (and the long one saw more).
    assert!(short_report.events > 0);
    assert!(long_report.events > short_report.events);

    assert!(
        long_allocs.abs_diff(short_allocs) <= 8,
        "allocation count grew with the slot count — the SoA slot loop is \
         allocating in steady state ({short_allocs} for {slots} slots vs \
         {long_allocs} for {} slots)",
        4 * slots
    );
    // And the fixed setup cost is genuinely modest: buffers scale with
    // replications × sensors, not slots.
    assert!(
        short_allocs < 600,
        "batch setup made {short_allocs} allocations — scratch is leaking \
         into per-slot work"
    );
}

/// An observer that counts every hook into fixed fields and asks for the
/// battery levels, so the engine's per-slot buffer is exercised.
#[derive(Default)]
struct Tally {
    hooks: u64,
    level_sum: f64,
}

impl Observer for Tally {
    fn on_slot(&mut self, _outcome: &SlotOutcome) {
        self.hooks += 1;
    }

    fn on_capture(&mut self, _slot: u64, _sensor: usize, _gap: u64) {
        self.hooks += 1;
    }

    fn on_miss(&mut self, _slot: u64) {
        self.hooks += 1;
    }

    fn on_forced_idle(&mut self, _slot: u64, _sensor: usize, _battery_fraction: f64) {
        self.hooks += 1;
    }

    fn on_recharge_overflow(&mut self, _slot: u64, _sensor: usize, _lost_units: f64) {
        self.hooks += 1;
    }

    fn wants_battery_levels(&self) -> bool {
        true
    }

    fn on_battery_levels(&mut self, _slot: u64, fractions: &[f64]) {
        self.level_sum += fractions.iter().sum::<f64>();
    }
}

/// Runs `run` on the 1× and the 4× horizon over one shared schedule and
/// checks both allocate exactly as often: the fewest allocations over a
/// few attempts, so a stray allocation of the test harness cannot count.
fn assert_flat_in_slots(
    what: &str,
    pmf: &SlotPmf,
    base: Simulation<'_>,
    run: impl Fn(&Simulation<'_>, &EventSchedule) -> SimReport,
) {
    let slots = 5_000u64;
    let schedule = EventSchedule::generate(pmf, 4 * slots, 99).unwrap();
    let short = base.clone().slots(slots);
    let long = base.slots(4 * slots);
    let short_report = run(&short, &schedule);
    let long_report = run(&long, &schedule);
    assert!(long_report.events > short_report.events, "{what}");
    let min_allocs = |sim: &Simulation<'_>| {
        (0..5)
            .map(|_| {
                let before = allocations();
                let report = run(sim, &schedule);
                let made = allocations() - before;
                drop(report);
                made
            })
            .min()
            .unwrap()
    };
    let (short_allocs, long_allocs) = (min_allocs(&short), min_allocs(&long));
    assert_eq!(
        short_allocs,
        long_allocs,
        "{what}: {short_allocs} allocations for {slots} slots but {long_allocs} for {}",
        4 * slots
    );
}

#[test]
fn single_runs_allocate_nothing_per_slot() {
    let _turn = serial();
    let pmf = weibull_pmf();
    let clustering = ClusteringPolicy::new(20, 45, 80, 0.5, 0.5, 1.0).unwrap();
    assert!(
        clustering.table().is_some(),
        "the table path is the one to check"
    );
    let base = Simulation::builder(&pmf)
        .seed(11)
        .battery(Energy::from_units(200.0));
    let plain = |sim: &Simulation<'_>, schedule: &EventSchedule| {
        sim.run_on(schedule, &clustering, &mut bernoulli).unwrap()
    };
    assert_flat_in_slots("one sensor", &pmf, base.clone(), plain);
    let fleet = base
        .clone()
        .sensors(3)
        .assignment(SlotAssignment::RoundRobin);
    assert_flat_in_slots("three rotating sensors", &pmf, fleet, plain);
    let observed = |sim: &Simulation<'_>, schedule: &EventSchedule| {
        let mut tally = Tally::default();
        let report = sim
            .run_on_observed(schedule, &clustering, &mut bernoulli, &mut tally)
            .unwrap();
        assert!(tally.hooks > 0 && tally.level_sum > 0.0);
        report
    };
    assert_flat_in_slots("observed, two sensors", &pmf, base.sensors(2), observed);
}

#[test]
fn bulk_runs_allocate_nothing_per_slot() {
    let _turn = serial();
    let pmf = weibull_pmf();
    // Quiet in states 1–19 and 46–79, hot in 21–44 and from 80 on.
    let clustering = ClusteringPolicy::new(20, 45, 80, 0.5, 0.5, 1.0).unwrap();
    let base = Simulation::builder(&pmf)
        .seed(11)
        .battery(Energy::from_units(200.0));
    let fleet = base
        .clone()
        .sensors(4)
        .assignment(SlotAssignment::RoundRobin);
    assert_flat_in_slots(
        "four rotating Bernoulli sensors",
        &pmf,
        fleet,
        |sim, schedule| sim.run_on(schedule, &clustering, &mut bernoulli).unwrap(),
    );
    assert_flat_in_slots("one periodic sensor", &pmf, base, |sim, schedule| {
        sim.run_on(schedule, &clustering, &mut periodic).unwrap()
    });
}
